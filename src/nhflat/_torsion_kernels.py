"""The straight-line kernel `torsion_pass` of the torsion pass.  GENERATED
by tools/gen_kernels.py from `composed_torsion_pass` there, bit for bit,
over the `mat3` helpers and the `tolerance` rules of a largest value: do
not edit.  To change the kernel, change its composed forms and run

    python tools/gen_kernels.py

Only `nhflat.torsion` imports this module, whose `extract_torsion`,
`classify`, `w3_form` and `w2_minus_form` each make one call of
`torsion_pass`, so that `flow`, `family` and a `check` of an invalid
record do not compile it.  `torsion_pass` takes floats, or complex
numbers in any input, since it has no guard and its largest values
compare moduli.  Every constant is written as a float."""


def torsion_pass(lam, a, b, det_p, w1p, p, q1, q2, r1, r2, A, B, jg, sizes, adj_pt):
    """What the torsion pass computes, from a structure's values as
    `NhfStructure` holds them (the data of `composed_construct`): lambda,
    a, b, det P and w1+ (`NhfStructure.w1plus`), the row-major 9-lists P,
    Q1, Q2, R1 and R2 of `m9`, A and B, J gamma's 20-list jg
    (`jgamma_coords`), the six `sizes` and the 9-list Adj(P^T) of `m9`, as

        (y, w3 membership, |w3|^2, w3 = 0,
         X, w2- primitivity, |w2-|^2, w2- = 0, w1+ = 0, nearly Kahler):

    y is the 20-list (see `invariant_three_form`) of
    w3 = d(omega) - w1+ gamma - (3 lambda / 4) J gamma.
    d(omega) = invariant_three_form(0, 0, P, -P) exactly and J gamma is
    (2 / det P)(A, B, R1, R2) on gamma's slots, so with
    c = 3 lambda / (2 det P)

        e135: -w1+ a - c A,          de^{2i-1} ^ e^{2j}: P - w1+ Q1 - c R1,
        e246: -w1+ b - c B,          e^{2i-1} ^ de^{2j}: -P - w1+ Q2 - c R2.

    The size of w3's terms is that of d(omega), w1+ gamma and
    (3 lambda / 4) J gamma.  The w3 membership is the largest relative
    residual of w3 ^ omega = w3 ^ gamma = w3 ^ J gamma = 0 on coordinates
    (`three_form_wedge_omega` and `three_form_volume`, J gamma's read off
    jg), each divided by that size times the size of the form wedged with
    w3; |w3|^2 = -D^2 lambda[y, y] / (2 (det P)^2)
    (`composed_bracket_hessian`); and w3 = 0 is relative(y, size).

    X is the row-major 9-list of w2- = build_omega(X), from
    w2- ^ omega = t, t = d(J gamma) + (2/3) w1+ omega^2, by the explicit
    inverse of the Lefschetz map (see the `torsion` docstring),

        X = P T^T P / det P - (tr(T^T P) / (2 det P)) P,

    T = M1 + M2 - (4/3) w1+ Adj(P^T), (c, d, M1, M2) J gamma's 20-list jg.
    The w2- primitivity is the relative residual of w2- ^ gamma =
    w2- ^ omega^2 = 0 on coordinates, each divided by the size of X's
    terms times that of the form wedged with it; |w2-|^2 =
    -2 <Adj(X^T), P> / det P; and then come the relative residuals of
    w2- = 0, of w1+ = 0 (|w1+| / |lambda|) and of nearly Kahler, the
    larger of those of w1+ = 0 and w3 = 0, NaN if either is.  The size of
    X's terms is that of d(J gamma) and (2/3) w1+ omega^2 over |omega|, or
    X's own where it is larger: where w2- = 0, X is roundoff.

    It compares nothing with a tolerance, and leaves out the scalar
    curvature, whose lambda**2 raises OverflowError where a product would
    give inf: `torsion` does both."""
    p00, p01, p02, p10, p11, p12, p20, p21, p22 = p
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = q1
    v00, v01, v02, v10, v11, v12, v20, v21, v22 = q2
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r1
    s00, s01, s02, s10, s11, s12, s20, s21, s22 = r2
    (jc, jd,
     j00, j01, j02, j10, j11, j12, j20, j21, j22,
     k00, k01, k02, k10, k11, k12, k20, k21, k22) = jg
    n_gam, n_jg, n_p, n_q, n_q1, n_q2 = sizes
    c00, c01, c02, c10, c11, c12, c20, c21, c22 = adj_pt
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
    t22 = abs(w1p)
    t23 = abs(lam)
    t24 = max(n_p, t22 * n_gam, 0.75 * t23 * n_jg)
    t25 = abs(t4 * p01 + t7 * p11 + t10 * p21 - (t5 * p00 + t8 * p10 + t11 * p20))
    t26 = abs(t16 * p00 + t17 * p01 + t18 * p02 - (t13 * p10 + t14 * p11 + t15 * p12))
    t27 = abs(t6 * p00 + t9 * p10 + t12 * p20 - (t4 * p02 + t7 * p12 + t10 * p22))
    t28 = abs(t13 * p20 + t14 * p21 + t15 * p22 - (t19 * p00 + t20 * p01 + t21 * p02))
    t29 = abs(t5 * p02 + t8 * p12 + t11 * p22 - (t6 * p01 + t9 * p11 + t12 * p21))
    t30 = abs(t19 * p10 + t20 * p11 + t21 * p12 - (t16 * p20 + t17 * p21 + t18 * p22))
    t31 = t2 * b
    t32 = t4 * v00
    t33 = t5 * v01
    t34 = t6 * v02
    t35 = t7 * v10
    t36 = t8 * v11
    t37 = t9 * v12
    t38 = t10 * v20
    t39 = t11 * v21
    t40 = t12 * v22
    t41 = u00 * v00 + u10 * v10 + u20 * v20
    t42 = u01 * v01 + u11 * v11 + u21 * v21
    t43 = u02 * v02 + u12 * v12 + u22 * v22
    t44 = t4 * t13 + t7 * t16 + t10 * t19
    t45 = t5 * t14 + t8 * t17 + t11 * t20
    t46 = t6 * t15 + t9 * t18 + t12 * t21
    t47 = t32 + t35 + t38 + (u00 * t13 + u10 * t16 + u20 * t19)
    t48 = t4 * v01 + t7 * v11 + t10 * v21 + (u00 * t14 + u10 * t17 + u20 * t20)
    t49 = t4 * v02 + t7 * v12 + t10 * v22 + (u00 * t15 + u10 * t18 + u20 * t21)
    t50 = t5 * v00 + t8 * v10 + t11 * v20 + (u01 * t13 + u11 * t16 + u21 * t19)
    t51 = t33 + t36 + t39 + (u01 * t14 + u11 * t17 + u21 * t20)
    t52 = t5 * v02 + t8 * v12 + t11 * v22 + (u01 * t15 + u11 * t18 + u21 * t21)
    t53 = t6 * v00 + t9 * v10 + t12 * v20 + (u02 * t13 + u12 * t16 + u22 * t19)
    t54 = t6 * v01 + t9 * v11 + t12 * v21 + (u02 * t14 + u12 * t17 + u22 * t20)
    t55 = t34 + t37 + t40 + (u02 * t15 + u12 * t18 + u22 * t21)
    t56 = t41 + t42 + t43
    t57 = t44 + t45 + t46
    t58 = t47 + t51 + t55
    t59 = t31 + a * t3 - t58
    t60 = 2.0 * det_p
    t61 = abs(t2)
    t62 = abs(t3)
    t63 = abs(t4)
    t64 = abs(t5)
    t65 = abs(t6)
    t66 = abs(t7)
    t67 = abs(t8)
    t68 = abs(t9)
    t69 = abs(t10)
    t70 = abs(t11)
    t71 = abs(t12)
    t72 = abs(t13)
    t73 = abs(t14)
    t74 = abs(t15)
    t75 = abs(t16)
    t76 = abs(t17)
    t77 = abs(t18)
    t78 = abs(t19)
    t79 = abs(t20)
    t80 = abs(t21)
    t81 = min(t61 + t62 + t63 + t64 + t65 + t66 + t67 + t68 + t69 + t70 + t71 + t72 + t73 + t74 + t75 + t76 + t77 + t78 + t79 + t80, max(t61, t62, t63, t64, t65, t66, t67, t68, t69, t70, t71, t72, t73, t74, t75, t76, t77, t78, t79, t80)) / max(abs(t24), 1e-300)
    t82 = 1.3333333333333333 * w1p
    t83 = j00 + k00 - t82 * c00
    t84 = j01 + k01 - t82 * c01
    t85 = j02 + k02 - t82 * c02
    t86 = j10 + k10 - t82 * c10
    t87 = j11 + k11 - t82 * c11
    t88 = j12 + k12 - t82 * c12
    t89 = j20 + k20 - t82 * c20
    t90 = j21 + k21 - t82 * c21
    t91 = j22 + k22 - t82 * c22
    t92 = (t83 * p00 + t84 * p01 + t85 * p02 + t86 * p10 + t87 * p11 + t88 * p12 + t89 * p20 + t90 * p21 + t91 * p22) / t60
    t93 = p00 * t83 + p01 * t84 + p02 * t85
    t94 = p00 * t86 + p01 * t87 + p02 * t88
    t95 = p00 * t89 + p01 * t90 + p02 * t91
    t96 = p10 * t83 + p11 * t84 + p12 * t85
    t97 = p10 * t86 + p11 * t87 + p12 * t88
    t98 = p10 * t89 + p11 * t90 + p12 * t91
    t99 = p20 * t83 + p21 * t84 + p22 * t85
    t100 = p20 * t86 + p21 * t87 + p22 * t88
    t101 = p20 * t89 + p21 * t90 + p22 * t91
    t102 = (t93 * p00 + t94 * p10 + t95 * p20) / det_p - t92 * p00
    t103 = (t93 * p01 + t94 * p11 + t95 * p21) / det_p - t92 * p01
    t104 = (t93 * p02 + t94 * p12 + t95 * p22) / det_p - t92 * p02
    t105 = (t96 * p00 + t97 * p10 + t98 * p20) / det_p - t92 * p10
    t106 = (t96 * p01 + t97 * p11 + t98 * p21) / det_p - t92 * p11
    t107 = (t96 * p02 + t97 * p12 + t98 * p22) / det_p - t92 * p12
    t108 = (t99 * p00 + t100 * p10 + t101 * p20) / det_p - t92 * p20
    t109 = (t99 * p01 + t100 * p11 + t101 * p21) / det_p - t92 * p21
    t110 = (t99 * p02 + t100 * p12 + t101 * p22) / det_p - t92 * p22
    t111 = abs(t102)
    t112 = abs(t103)
    t113 = abs(t104)
    t114 = abs(t105)
    t115 = abs(t106)
    t116 = abs(t107)
    t117 = abs(t108)
    t118 = abs(t109)
    t119 = abs(t110)
    t120 = min(t111 + t112 + t113 + t114 + t115 + t116 + t117 + t118 + t119, max(t111, t112, t113, t114, t115, t116, t117, t118, t119))
    t121 = max(t120, max(n_jg, 0.6666666666666666 * t22 * n_p * n_p) / n_p)
    t122 = abs(u00 * t103 + u10 * t106 + u20 * t109 - (u01 * t102 + u11 * t105 + u21 * t108))
    t123 = abs(v10 * t102 + v11 * t103 + v12 * t104 - (v00 * t105 + v01 * t106 + v02 * t107))
    t124 = abs(u02 * t102 + u12 * t105 + u22 * t108 - (u00 * t104 + u10 * t107 + u20 * t110))
    t125 = abs(v00 * t108 + v01 * t109 + v02 * t110 - (v20 * t102 + v21 * t103 + v22 * t104))
    t126 = abs(u01 * t104 + u11 * t107 + u21 * t110 - (u02 * t103 + u12 * t106 + u22 * t109))
    t127 = abs(v20 * t105 + v21 * t106 + v22 * t107 - (v10 * t108 + v11 * t109 + v12 * t110))
    t128 = t22 / max(t23, 1e-300)
    t129 = abs(t128)
    t130 = abs(t81)
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
        max(min(t25 + t26 + t27 + t28 + t29 + t30, max(t25, t26, t27, t28, t29, t30)) / max(abs(t24 * n_p), 1e-300), abs(t3 * a - t31 + (t32 + t33 + t34 + t35 + t36 + t37 + t38 + t39 + t40) - (t13 * u00 + t14 * u01 + t15 * u02 + t16 * u10 + t17 * u11 + t18 * u12 + t19 * u20 + t20 * u21 + t21 * u22)) / max(abs(t24 * n_gam), 1e-300), abs(t3 * jc - t2 * jd + (t4 * k00 + t5 * k01 + t6 * k02 + t7 * k10 + t8 * k11 + t9 * k12 + t10 * k20 + t11 * k21 + t12 * k22) - (t13 * j00 + t14 * j01 + t15 * j02 + t16 * j10 + t17 * j11 + t18 * j12 + t19 * j20 + t20 * j21 + t21 * j22)) / max(abs(t24 * n_jg), 1e-300)),
        -(-2.0 * t59 * t59 - 4.0 * (a * b - t56) * (t2 * t3 - t57) + 4.0 * t58 * t58 + 8.0 * t56 * t57 - 4.0 * (t47 * t47 + t48 * t50 + t49 * t53 + t50 * t48 + t51 * t51 + t52 * t54 + t53 * t49 + t54 * t52 + t55 * t55) - 8.0 * (t41 * t44 + (u00 * v01 + u10 * v11 + u20 * v21) * (t5 * t13 + t8 * t16 + t11 * t19) + (u00 * v02 + u10 * v12 + u20 * v22) * (t6 * t13 + t9 * t16 + t12 * t19) + (u01 * v00 + u11 * v10 + u21 * v20) * (t4 * t14 + t7 * t17 + t10 * t20) + t42 * t45 + (u01 * v02 + u11 * v12 + u21 * v22) * (t6 * t14 + t9 * t17 + t12 * t20) + (u02 * v00 + u12 * v10 + u22 * v20) * (t4 * t15 + t7 * t18 + t10 * t21) + (u02 * v01 + u12 * v11 + u22 * v21) * (t5 * t15 + t8 * t18 + t11 * t21) + t43 * t46) - 8.0 * (t2 * ((v11 * v22 - v12 * v21) * t13 + (v12 * v20 - v10 * v22) * t14 + (v10 * v21 - v11 * v20) * t15 + (v02 * v21 - v01 * v22) * t16 + (v00 * v22 - v02 * v20) * t17 + (v01 * v20 - v00 * v21) * t18 + (v01 * v12 - v02 * v11) * t19 + (v02 * v10 - v00 * v12) * t20 + (v00 * v11 - v01 * v10) * t21) + t3 * ((u11 * u22 - u12 * u21) * t4 + (u12 * u20 - u10 * u22) * t5 + (u10 * u21 - u11 * u20) * t6 + (u02 * u21 - u01 * u22) * t7 + (u00 * u22 - u02 * u20) * t8 + (u01 * u20 - u00 * u21) * t9 + (u01 * u12 - u02 * u11) * t10 + (u02 * u10 - u00 * u12) * t11 + (u00 * u11 - u01 * u10) * t12) + a * (v00 * (t17 * t21 - t18 * t20) + v01 * (t18 * t19 - t16 * t21) + v02 * (t16 * t20 - t17 * t19) + v10 * (t15 * t20 - t14 * t21) + v11 * (t13 * t21 - t15 * t19) + v12 * (t14 * t19 - t13 * t20) + v20 * (t14 * t18 - t15 * t17) + v21 * (t15 * t16 - t13 * t18) + v22 * (t13 * t17 - t14 * t16)) + b * (u00 * (t8 * t12 - t9 * t11) + u01 * (t9 * t10 - t7 * t12) + u02 * (t7 * t11 - t8 * t10) + u10 * (t6 * t11 - t5 * t12) + u11 * (t4 * t12 - t6 * t10) + u12 * (t5 * t10 - t4 * t11) + u20 * (t5 * t9 - t6 * t8) + u21 * (t6 * t7 - t4 * t9) + u22 * (t4 * t8 - t5 * t7)))) / (t60 * det_p),
        t81,
        [
            t102,
            t103,
            t104,
            t105,
            t106,
            t107,
            t108,
            t109,
            t110,
        ],
        max(min(t122 + t123 + t124 + t125 + t126 + t127, max(t122, t123, t124, t125, t126, t127)) / max(abs(t121 * n_gam), 1e-300), abs(2.0 * (t102 * c00 + t103 * c01 + t104 * c02 + t105 * c10 + t106 * c11 + t107 * c12 + t108 * c20 + t109 * c21 + t110 * c22)) / max(abs(t121 * n_p * n_p), 1e-300)),
        -2.0 * ((t106 * t110 - t107 * t109) * p00 + (t107 * t108 - t105 * t110) * p01 + (t105 * t109 - t106 * t108) * p02 + (t104 * t109 - t103 * t110) * p10 + (t102 * t110 - t104 * t108) * p11 + (t103 * t108 - t102 * t109) * p12 + (t103 * t107 - t104 * t106) * p20 + (t104 * t105 - t102 * t107) * p21 + (t102 * t106 - t103 * t105) * p22) / det_p,
        t120 / max(abs(t121), 1e-300),
        t128,
        min(t129 + t130, max(t129, t130)),
    )
