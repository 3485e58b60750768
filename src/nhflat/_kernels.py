"""The straight-line kernels of a structure.  GENERATED by
tools/gen_kernels.py from the composed forms there, over the `mat3`
helpers and the `tolerance` rules of a largest value: do not edit.  To
change a kernel, change its composed form and run

    python tools/gen_kernels.py

`construct` is what `NhfStructure` computes as it is built, and
`verdicts` what its `validate` reads.  Each kernel computes what its
composed form computes, with the same operations on the same operands in
the same order, so the results agree to the last bit.  A largest modulus
is NaN if any entry is (`tolerance.max_abs`); a term size keeps the
first of the largest values, as the builtin `max` does
(`tolerance.term_size`).  The kernels take floats, or complex numbers:
`construct` raises SingularStructureError in its one guard, which
compares moduli, as the largest values of both kernels do, and neither
calls `math.sqrt`.  Every constant is written as a float, so on
``fractions.Fraction`` input only the composed forms, which keep their
integer constants, are exact."""

from nhflat.errors import SingularStructureError


def construct(lam, a, b, p, q):
    """What constructing the structure (lambda, a, b, P, Q) computes, with
    P and Q row-major 9-lists, as

        (det P, Adj(P^T), Q1, Q2, F, J gamma, sizes):

    Q1 = Q - (lambda/2) Adj(P^T) and Q2 = -Q - (lambda/2) Adj(P^T) as
    row-major lists, F = (A, B, R1, R2) of `composed_abr` and
    J gamma = (2 / det P) F as 20-lists (see `invariant_three_form`),
    and the largest |entry| of gamma, J gamma, P, Q, Q1 and Q2 (the
    fields of `structure.Sizes`), each NaN if an entry is.  Raises
    SingularStructureError, before it computes anything else, when
    |det P| <= SINGULAR_DETP max|P|^3: a test of the shape of P,
    independent of its scale."""
    p00, p01, p02, p10, p11, p12, p20, p21, p22 = p
    q00, q01, q02, q10, q11, q12, q20, q21, q22 = q
    t0 = p11 * p22 - p12 * p21
    t1 = p10 * p22
    t2 = p12 * p20
    t3 = p10 * p21 - p11 * p20
    t4 = p00 * t0 - p01 * (t1 - t2) + p02 * t3
    t5 = abs(p00)
    t6 = abs(p01)
    t7 = abs(p02)
    t8 = abs(p10)
    t9 = abs(p11)
    t10 = abs(p12)
    t11 = abs(p20)
    t12 = abs(p21)
    t13 = abs(p22)
    t14 = min(t5 + t6 + t7 + t8 + t9 + t10 + t11 + t12 + t13, max(t5, t6, t7, t8, t9, t10, t11, t12, t13))
    if abs(t4) / max(abs(t14 * t14 * t14), 1e-300) <= 1e-12:
        raise SingularStructureError(f"det P = {t4} is singular")
    t15 = t2 - t1
    t16 = p02 * p21 - p01 * p22
    t17 = p00 * p22 - p02 * p20
    t18 = p01 * p20 - p00 * p21
    t19 = p01 * p12 - p02 * p11
    t20 = p02 * p10 - p00 * p12
    t21 = p00 * p11 - p01 * p10
    t22 = 0.5 * lam
    t23 = t22 * t0
    t24 = q00 - t23
    t25 = t22 * t15
    t26 = q01 - t25
    t27 = t22 * t3
    t28 = q02 - t27
    t29 = t22 * t16
    t30 = q10 - t29
    t31 = t22 * t17
    t32 = q11 - t31
    t33 = t22 * t18
    t34 = q12 - t33
    t35 = t22 * t19
    t36 = q20 - t35
    t37 = t22 * t20
    t38 = q21 - t37
    t39 = t22 * t21
    t40 = q22 - t39
    t41 = -q00 - t23
    t42 = -q01 - t25
    t43 = -q02 - t27
    t44 = -q10 - t29
    t45 = -q11 - t31
    t46 = -q12 - t33
    t47 = -q20 - t35
    t48 = -q21 - t37
    t49 = -q22 - t39
    t50 = t24 * t41 + t30 * t44 + t36 * t47
    t51 = t24 * t42 + t30 * t45 + t36 * t48
    t52 = t24 * t43 + t30 * t46 + t36 * t49
    t53 = t26 * t41 + t32 * t44 + t38 * t47
    t54 = t26 * t42 + t32 * t45 + t38 * t48
    t55 = t26 * t43 + t32 * t46 + t38 * t49
    t56 = t28 * t41 + t34 * t44 + t40 * t47
    t57 = t28 * t42 + t34 * t45 + t40 * t48
    t58 = t28 * t43 + t34 * t46 + t40 * t49
    t59 = t50 + t54 + t58
    t60 = a * b
    t61 = t60 + t59
    t62 = 2.0 * a
    t63 = 2.0 * b
    t64 = t45 * t49 - t46 * t48
    t65 = t46 * t47
    t66 = t44 * t49
    t67 = t44 * t48 - t45 * t47
    t68 = -(t61 * t24 - t62 * t64 - 2.0 * (t24 * t50 + t26 * t51 + t28 * t52))
    t69 = -(t61 * t26 - t62 * (t65 - t66) - 2.0 * (t24 * t53 + t26 * t54 + t28 * t55))
    t70 = -(t61 * t28 - t62 * t67 - 2.0 * (t24 * t56 + t26 * t57 + t28 * t58))
    t71 = -(t61 * t30 - t62 * (t43 * t48 - t42 * t49) - 2.0 * (t30 * t50 + t32 * t51 + t34 * t52))
    t72 = -(t61 * t32 - t62 * (t41 * t49 - t43 * t47) - 2.0 * (t30 * t53 + t32 * t54 + t34 * t55))
    t73 = -(t61 * t34 - t62 * (t42 * t47 - t41 * t48) - 2.0 * (t30 * t56 + t32 * t57 + t34 * t58))
    t74 = -(t61 * t36 - t62 * (t42 * t46 - t43 * t45) - 2.0 * (t36 * t50 + t38 * t51 + t40 * t52))
    t75 = -(t61 * t38 - t62 * (t43 * t44 - t41 * t46) - 2.0 * (t36 * t53 + t38 * t54 + t40 * t55))
    t76 = -(t61 * t40 - t62 * (t41 * t45 - t42 * t44) - 2.0 * (t36 * t56 + t38 * t57 + t40 * t58))
    t77 = t32 * t40 - t34 * t38
    t78 = t34 * t36
    t79 = t30 * t40
    t80 = t30 * t38 - t32 * t36
    t81 = t61 * t41 - t63 * t77 - 2.0 * (t41 * t50 + t42 * t53 + t43 * t56)
    t82 = t61 * t42 - t63 * (t78 - t79) - 2.0 * (t41 * t51 + t42 * t54 + t43 * t57)
    t83 = t61 * t43 - t63 * t80 - 2.0 * (t41 * t52 + t42 * t55 + t43 * t58)
    t84 = t61 * t44 - t63 * (t28 * t38 - t26 * t40) - 2.0 * (t44 * t50 + t45 * t53 + t46 * t56)
    t85 = t61 * t45 - t63 * (t24 * t40 - t28 * t36) - 2.0 * (t44 * t51 + t45 * t54 + t46 * t57)
    t86 = t61 * t46 - t63 * (t26 * t36 - t24 * t38) - 2.0 * (t44 * t52 + t45 * t55 + t46 * t58)
    t87 = t61 * t47 - t63 * (t26 * t34 - t28 * t32) - 2.0 * (t47 * t50 + t48 * t53 + t49 * t56)
    t88 = t61 * t48 - t63 * (t28 * t30 - t24 * t34) - 2.0 * (t47 * t51 + t48 * t54 + t49 * t57)
    t89 = t61 * t49 - t63 * (t24 * t32 - t26 * t30) - 2.0 * (t47 * t52 + t48 * t55 + t49 * t58)
    t90 = a * t59 - 2.0 * (t24 * t77 - t26 * (t79 - t78) + t28 * t80) - a * a * b
    t91 = -(b * t59 - 2.0 * (t41 * t64 - t42 * (t66 - t65) + t43 * t67) - t60 * b)
    t92 = 2.0 / t4
    t93 = t92 * t90
    t94 = t92 * t91
    t95 = t92 * t68
    t96 = t92 * t69
    t97 = t92 * t70
    t98 = t92 * t71
    t99 = t92 * t72
    t100 = t92 * t73
    t101 = t92 * t74
    t102 = t92 * t75
    t103 = t92 * t76
    t104 = t92 * t81
    t105 = t92 * t82
    t106 = t92 * t83
    t107 = t92 * t84
    t108 = t92 * t85
    t109 = t92 * t86
    t110 = t92 * t87
    t111 = t92 * t88
    t112 = t92 * t89
    t113 = abs(t24)
    t114 = abs(t26)
    t115 = abs(t28)
    t116 = abs(t30)
    t117 = abs(t32)
    t118 = abs(t34)
    t119 = abs(t36)
    t120 = abs(t38)
    t121 = abs(t40)
    t122 = min(t113 + t114 + t115 + t116 + t117 + t118 + t119 + t120 + t121, max(t113, t114, t115, t116, t117, t118, t119, t120, t121))
    t123 = abs(t41)
    t124 = abs(t42)
    t125 = abs(t43)
    t126 = abs(t44)
    t127 = abs(t45)
    t128 = abs(t46)
    t129 = abs(t47)
    t130 = abs(t48)
    t131 = abs(t49)
    t132 = min(t123 + t124 + t125 + t126 + t127 + t128 + t129 + t130 + t131, max(t123, t124, t125, t126, t127, t128, t129, t130, t131))
    t133 = abs(a)
    t134 = abs(b)
    t135 = abs(t122)
    t136 = abs(t132)
    t137 = abs(t93)
    t138 = abs(t94)
    t139 = abs(t95)
    t140 = abs(t96)
    t141 = abs(t97)
    t142 = abs(t98)
    t143 = abs(t99)
    t144 = abs(t100)
    t145 = abs(t101)
    t146 = abs(t102)
    t147 = abs(t103)
    t148 = abs(t104)
    t149 = abs(t105)
    t150 = abs(t106)
    t151 = abs(t107)
    t152 = abs(t108)
    t153 = abs(t109)
    t154 = abs(t110)
    t155 = abs(t111)
    t156 = abs(t112)
    t157 = abs(q00)
    t158 = abs(q01)
    t159 = abs(q02)
    t160 = abs(q10)
    t161 = abs(q11)
    t162 = abs(q12)
    t163 = abs(q20)
    t164 = abs(q21)
    t165 = abs(q22)
    return (
        t4,
        [
            t0,
            t15,
            t3,
            t16,
            t17,
            t18,
            t19,
            t20,
            t21,
        ],
        [
            t24,
            t26,
            t28,
            t30,
            t32,
            t34,
            t36,
            t38,
            t40,
        ],
        [
            t41,
            t42,
            t43,
            t44,
            t45,
            t46,
            t47,
            t48,
            t49,
        ],
        [
            t90,
            t91,
            t68,
            t69,
            t70,
            t71,
            t72,
            t73,
            t74,
            t75,
            t76,
            t81,
            t82,
            t83,
            t84,
            t85,
            t86,
            t87,
            t88,
            t89,
        ],
        [
            t93,
            t94,
            t95,
            t96,
            t97,
            t98,
            t99,
            t100,
            t101,
            t102,
            t103,
            t104,
            t105,
            t106,
            t107,
            t108,
            t109,
            t110,
            t111,
            t112,
        ],
        (
            min(t133 + t134 + t135 + t136, max(t133, t134, t135, t136)),
            min(t137 + t138 + t139 + t140 + t141 + t142 + t143 + t144 + t145 + t146 + t147 + t148 + t149 + t150 + t151 + t152 + t153 + t154 + t155 + t156, max(t137, t138, t139, t140, t141, t142, t143, t144, t145, t146, t147, t148, t149, t150, t151, t152, t153, t154, t155, t156)),
            t14,
            min(t157 + t158 + t159 + t160 + t161 + t162 + t163 + t164 + t165, max(t157, t158, t159, t160, t161, t162, t163, t164, t165)),
            t122,
            t132,
        ),
    )


def verdicts(a, b, p, q, q1, q2, jg, sizes, sign, det_p):
    """What `NhfStructure.validate` reads of the structure with the data
    of `composed_construct`, sign the sign of det P (1.0 or -1.0), as

        (r, qtp_symmetry, normalization, jgamma_wedge_omega, j_squared, A, B, C):

    r is the list of the 10 defining residuals
    (`NhfStructure.defining_residuals`): the 3 entries above the diagonal
    of Q^T P - P^T Q, (det P)^2 minus `composed_bracket`, and the 6
    coefficients of J gamma ^ omega (`three_form_wedge_omega`), each
    divided by the size of the terms it compares, as `tolerance.relative`
    divides (of products, not powers: a float power raises on overflow
    where a product gives inf).  Then the largest |entry| of each of
    r's three blocks, NaN if an entry is, and |j| and the blocks A, B, C
    of `composed_j_verdicts`, with P times the sign of det P."""
    p00, p01, p02, p10, p11, p12, p20, p21, p22 = p
    q00, q01, q02, q10, q11, q12, q20, q21, q22 = q
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = q1
    v00, v01, v02, v10, v11, v12, v20, v21, v22 = q2
    (ja, jb,
     r00, r01, r02, r10, r11, r12, r20, r21, r22,
     s00, s01, s02, s10, s11, s12, s20, s21, s22) = jg
    n_gam, n_jg, n_p, n_q, n_q1, n_q2 = sizes
    t0 = abs(a)
    t1 = abs(b)
    t2 = n_q1 * n_q2
    t3 = t0 * t1 + t2
    t4 = det_p * det_p
    t5 = max(abs(n_q * n_p), 1e-300)
    t6 = (q00 * p01 + q10 * p11 + q20 * p21 - (q01 * p00 + q11 * p10 + q21 * p20)) / t5
    t7 = (q00 * p02 + q10 * p12 + q20 * p22 - (q02 * p00 + q12 * p10 + q22 * p20)) / t5
    t8 = (q01 * p02 + q11 * p12 + q21 * p22 - (q02 * p01 + q12 * p11 + q22 * p21)) / t5
    t9 = u00 * v00 + u10 * v10 + u20 * v20
    t10 = u00 * v01 + u10 * v11 + u20 * v21
    t11 = u00 * v02 + u10 * v12 + u20 * v22
    t12 = u01 * v00 + u11 * v10 + u21 * v20
    t13 = u01 * v01 + u11 * v11 + u21 * v21
    t14 = u01 * v02 + u11 * v12 + u21 * v22
    t15 = u02 * v00 + u12 * v10 + u22 * v20
    t16 = u02 * v01 + u12 * v11 + u22 * v21
    t17 = u02 * v02 + u12 * v12 + u22 * v22
    t18 = a * b - (t9 + t13 + t17)
    t19 = v11 * v22 - v12 * v21
    t20 = v10 * v22
    t21 = v12 * v20
    t22 = v10 * v21 - v11 * v20
    t23 = u11 * u22 - u12 * u21
    t24 = u10 * u22
    t25 = u12 * u20
    t26 = u10 * u21 - u11 * u20
    t27 = (t4 - (-(t18 * t18) - 4.0 * (a * (v00 * t19 - v01 * (t20 - t21) + v02 * t22) + b * (u00 * t23 - u01 * (t24 - t25) + u02 * t26)) + 4.0 * (t13 * t17 - t14 * t16 + (t9 * t17 - t11 * t15) + (t9 * t13 - t10 * t12)))) / max(abs(t4), abs(t3 * t3), abs(t0 * n_q2 * n_q2 * n_q2), abs(t1 * n_q1 * n_q1 * n_q1), abs(t2 * n_q1 * n_q2), 1e-300)
    t28 = max(abs(n_jg * n_p), 1e-300)
    t29 = (r00 * p01 + r10 * p11 + r20 * p21 - (r01 * p00 + r11 * p10 + r21 * p20)) / t28
    t30 = (s10 * p00 + s11 * p01 + s12 * p02 - (s00 * p10 + s01 * p11 + s02 * p12)) / t28
    t31 = (r02 * p00 + r12 * p10 + r22 * p20 - (r00 * p02 + r10 * p12 + r20 * p22)) / t28
    t32 = (s00 * p20 + s01 * p21 + s02 * p22 - (s20 * p00 + s21 * p01 + s22 * p02)) / t28
    t33 = (r01 * p02 + r11 * p12 + r21 * p22 - (r02 * p01 + r12 * p11 + r22 * p21)) / t28
    t34 = (s20 * p10 + s21 * p11 + s22 * p12 - (s10 * p20 + s11 * p21 + s12 * p22)) / t28
    t35 = sign * p00
    t36 = sign * p01
    t37 = sign * p02
    t38 = sign * p10
    t39 = sign * p11
    t40 = sign * p12
    t41 = sign * p20
    t42 = sign * p21
    t43 = sign * p22
    t44 = 2.0 * (v00 * u10 + v01 * u11 + v02 * u12)
    t45 = 2.0 * (v00 * u20 + v01 * u21 + v02 * u22)
    t46 = 2.0 * (v10 * u00 + v11 * u01 + v12 * u02)
    t47 = 2.0 * (v10 * u20 + v11 * u21 + v12 * u22)
    t48 = 2.0 * (v20 * u00 + v21 * u01 + v22 * u02)
    t49 = 2.0 * (v20 * u10 + v21 * u11 + v22 * u12)
    t50 = -2.0 * t10
    t51 = -2.0 * t11
    t52 = -2.0 * t12
    t53 = -2.0 * t14
    t54 = -2.0 * t15
    t55 = -2.0 * t16
    t56 = 2.0 * (v00 * u00 + v01 * u01 + v02 * u02) + t18
    t57 = -2.0 * t9 - t18
    t58 = 2.0 * (v10 * u10 + v11 * u11 + v12 * u12) + t18
    t59 = -2.0 * t13 - t18
    t60 = 2.0 * (v20 * u20 + v21 * u21 + v22 * u22) + t18
    t61 = -2.0 * t17 - t18
    t62 = -2.0 * (a * v00 - t23)
    t63 = -2.0 * (a * v01 - (t25 - t24))
    t64 = -2.0 * (a * v02 - t26)
    t65 = -2.0 * (a * v10 - (u02 * u21 - u01 * u22))
    t66 = -2.0 * (a * v11 - (u00 * u22 - u02 * u20))
    t67 = -2.0 * (a * v12 - (u01 * u20 - u00 * u21))
    t68 = -2.0 * (a * v20 - (u01 * u12 - u02 * u11))
    t69 = -2.0 * (a * v21 - (u02 * u10 - u00 * u12))
    t70 = -2.0 * (a * v22 - (u00 * u11 - u01 * u10))
    t71 = 2.0 * (b * u00 - t19)
    t72 = 2.0 * (b * u10 - (v02 * v21 - v01 * v22))
    t73 = 2.0 * (b * u20 - (v01 * v12 - v02 * v11))
    t74 = 2.0 * (b * u01 - (t21 - t20))
    t75 = 2.0 * (b * u11 - (v00 * v22 - v02 * v20))
    t76 = 2.0 * (b * u21 - (v02 * v10 - v00 * v12))
    t77 = 2.0 * (b * u02 - t22)
    t78 = 2.0 * (b * u12 - (v01 * v20 - v00 * v21))
    t79 = 2.0 * (b * u22 - (v00 * v11 - v01 * v10))
    t80 = t56 / det_p
    t81 = t35 * t62 + t36 * t63 + t37 * t64
    t82 = t35 * t65 + t36 * t66 + t37 * t67
    t83 = t35 * t68 + t36 * t69 + t37 * t70
    t84 = t38 * t62 + t39 * t63 + t40 * t64
    t85 = t38 * t65 + t39 * t66 + t40 * t67
    t86 = t38 * t68 + t39 * t69 + t40 * t70
    t87 = t41 * t62 + t42 * t63 + t43 * t64
    t88 = t41 * t65 + t42 * t66 + t43 * t67
    t89 = t41 * t68 + t42 * t69 + t43 * t70
    t90 = t35 * t71 + t38 * t72 + t41 * t73
    t91 = t35 * t74 + t38 * t75 + t41 * t76
    t92 = t35 * t77 + t38 * t78 + t41 * t79
    t93 = t36 * t71 + t39 * t72 + t42 * t73
    t94 = t36 * t74 + t39 * t75 + t42 * t76
    t95 = t36 * t77 + t39 * t78 + t42 * t79
    t96 = t37 * t71 + t40 * t72 + t43 * t73
    t97 = t37 * t74 + t40 * t75 + t43 * t76
    t98 = t37 * t77 + t40 * t78 + t43 * t79
    t99 = abs(t6)
    t100 = abs(t7)
    t101 = abs(t8)
    t102 = abs(t29)
    t103 = abs(t30)
    t104 = abs(t31)
    t105 = abs(t32)
    t106 = abs(t33)
    t107 = abs(t34)
    return (
        [
            t6,
            t7,
            t8,
            t27,
            t29,
            t30,
            t31,
            t32,
            t33,
            t34,
        ],
        min(t99 + t100 + t101, max(t99, t100, t101)),
        abs(t27),
        min(t102 + t103 + t104 + t105 + t106 + t107, max(t102, t103, t104, t105, t106, t107)),
        abs(t80 * t80 + t44 / det_p * (t46 / det_p) + t45 / det_p * (t48 / det_p) + t62 / det_p * (t71 / det_p) + t63 / det_p * (t74 / det_p) + t64 / det_p * (t77 / det_p) + 1.0),
        [
            t81 + t81,
            t82 + t84,
            t83 + t87,
            t84 + t82,
            t85 + t85,
            t86 + t88,
            t87 + t83,
            t88 + t86,
            t89 + t89,
        ],
        [
            t35 * t57 + t36 * t50 + t37 * t51 - (t56 * t35 + t44 * t38 + t45 * t41),
            t35 * t52 + t36 * t59 + t37 * t53 - (t56 * t36 + t44 * t39 + t45 * t42),
            t35 * t54 + t36 * t55 + t37 * t61 - (t56 * t37 + t44 * t40 + t45 * t43),
            t38 * t57 + t39 * t50 + t40 * t51 - (t46 * t35 + t58 * t38 + t47 * t41),
            t38 * t52 + t39 * t59 + t40 * t53 - (t46 * t36 + t58 * t39 + t47 * t42),
            t38 * t54 + t39 * t55 + t40 * t61 - (t46 * t37 + t58 * t40 + t47 * t43),
            t41 * t57 + t42 * t50 + t43 * t51 - (t48 * t35 + t49 * t38 + t60 * t41),
            t41 * t52 + t42 * t59 + t43 * t53 - (t48 * t36 + t49 * t39 + t60 * t42),
            t41 * t54 + t42 * t55 + t43 * t61 - (t48 * t37 + t49 * t40 + t60 * t43),
        ],
        [
            -(t90 + t90),
            -(t91 + t93),
            -(t92 + t96),
            -(t93 + t91),
            -(t94 + t94),
            -(t95 + t97),
            -(t96 + t92),
            -(t97 + t95),
            -(t98 + t98),
        ],
    )
