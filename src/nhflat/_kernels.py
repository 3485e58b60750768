"""The straight-line kernel of a structure.  GENERATED by
tools/gen_kernels.py from the composed forms there, over the `mat3`
helpers and the `tolerance` rules of a largest value: do not edit.  To
change the kernel, change its composed forms or `flow.abr`, its F, and
run

    python tools/gen_kernels.py

`construct` is what `NhfStructure` computes as it is built: its data,
and the residuals and blocks that `validate` reads.  It computes what
its composed form computes, with the same operations on the same
operands in the same order, so the results agree to the last bit.  A
largest modulus is NaN if any entry is (`tolerance.max_abs`); a term
size keeps the first of the largest values, as the builtin `max` does
(`tolerance.term_size`).  It takes floats, or complex numbers in any of
its inputs: it raises SingularStructureError in its one guard, which
compares moduli, as its largest values do, and it calls no
`math.sqrt`.  Every constant is written as a float, so on
``fractions.Fraction`` input only the composed forms, which keep their
integer constants, are exact."""

from nhflat.errors import SingularStructureError


def construct(lam, a, b, p, q):
    """What building and checking the structure (lambda, a, b, P, Q)
    compute, with P and Q row-major 9-lists, as

        (det P, Adj(P^T), Q1, Q2, F, J gamma, sizes, r, maxima, j_squared, spd):

    Q1 = Q - (lambda/2) Adj(P^T) and Q2 = -Q - (lambda/2) Adj(P^T) as
    row-major lists, F = (A, B, R1, R2) of `flow.abr` and
    J gamma = (2 / det P) F as 20-lists (see `invariant_three_form`),
    and the largest |entry| of gamma, J gamma, P, Q, Q1 and Q2 (the
    fields of `structure.Sizes`), each NaN if an entry is; then the
    verdicts of `composed_verdicts` on these values.  Raises
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
    t67 = t65 - t66
    t68 = t44 * t48 - t45 * t47
    t69 = t43 * t48 - t42 * t49
    t70 = t41 * t49 - t43 * t47
    t71 = t42 * t47 - t41 * t48
    t72 = t42 * t46 - t43 * t45
    t73 = t43 * t44 - t41 * t46
    t74 = t41 * t45 - t42 * t44
    t75 = -(t61 * t24 - t62 * t64 - 2.0 * (t24 * t50 + t26 * t51 + t28 * t52))
    t76 = -(t61 * t26 - t62 * t67 - 2.0 * (t24 * t53 + t26 * t54 + t28 * t55))
    t77 = -(t61 * t28 - t62 * t68 - 2.0 * (t24 * t56 + t26 * t57 + t28 * t58))
    t78 = -(t61 * t30 - t62 * t69 - 2.0 * (t30 * t50 + t32 * t51 + t34 * t52))
    t79 = -(t61 * t32 - t62 * t70 - 2.0 * (t30 * t53 + t32 * t54 + t34 * t55))
    t80 = -(t61 * t34 - t62 * t71 - 2.0 * (t30 * t56 + t32 * t57 + t34 * t58))
    t81 = -(t61 * t36 - t62 * t72 - 2.0 * (t36 * t50 + t38 * t51 + t40 * t52))
    t82 = -(t61 * t38 - t62 * t73 - 2.0 * (t36 * t53 + t38 * t54 + t40 * t55))
    t83 = -(t61 * t40 - t62 * t74 - 2.0 * (t36 * t56 + t38 * t57 + t40 * t58))
    t84 = t32 * t40 - t34 * t38
    t85 = t34 * t36
    t86 = t30 * t40
    t87 = t85 - t86
    t88 = t30 * t38 - t32 * t36
    t89 = t28 * t38 - t26 * t40
    t90 = t24 * t40 - t28 * t36
    t91 = t26 * t36 - t24 * t38
    t92 = t26 * t34 - t28 * t32
    t93 = t28 * t30 - t24 * t34
    t94 = t24 * t32 - t26 * t30
    t95 = t61 * t41 - t63 * t84 - 2.0 * (t41 * t50 + t42 * t53 + t43 * t56)
    t96 = t61 * t42 - t63 * t87 - 2.0 * (t41 * t51 + t42 * t54 + t43 * t57)
    t97 = t61 * t43 - t63 * t88 - 2.0 * (t41 * t52 + t42 * t55 + t43 * t58)
    t98 = t61 * t44 - t63 * t89 - 2.0 * (t44 * t50 + t45 * t53 + t46 * t56)
    t99 = t61 * t45 - t63 * t90 - 2.0 * (t44 * t51 + t45 * t54 + t46 * t57)
    t100 = t61 * t46 - t63 * t91 - 2.0 * (t44 * t52 + t45 * t55 + t46 * t58)
    t101 = t61 * t47 - t63 * t92 - 2.0 * (t47 * t50 + t48 * t53 + t49 * t56)
    t102 = t61 * t48 - t63 * t93 - 2.0 * (t47 * t51 + t48 * t54 + t49 * t57)
    t103 = t61 * t49 - t63 * t94 - 2.0 * (t47 * t52 + t48 * t55 + t49 * t58)
    t104 = t24 * t84 - t26 * (t86 - t85) + t28 * t88
    t105 = a * t59 - 2.0 * t104 - a * a * b
    t106 = t41 * t64 - t42 * (t66 - t65) + t43 * t68
    t107 = -(b * t59 - 2.0 * t106 - t60 * b)
    t108 = 2.0 / t4
    t109 = t108 * t105
    t110 = t108 * t107
    t111 = t108 * t75
    t112 = t108 * t76
    t113 = t108 * t77
    t114 = t108 * t78
    t115 = t108 * t79
    t116 = t108 * t80
    t117 = t108 * t81
    t118 = t108 * t82
    t119 = t108 * t83
    t120 = t108 * t95
    t121 = t108 * t96
    t122 = t108 * t97
    t123 = t108 * t98
    t124 = t108 * t99
    t125 = t108 * t100
    t126 = t108 * t101
    t127 = t108 * t102
    t128 = t108 * t103
    t129 = abs(t24)
    t130 = abs(t26)
    t131 = abs(t28)
    t132 = abs(t30)
    t133 = abs(t32)
    t134 = abs(t34)
    t135 = abs(t36)
    t136 = abs(t38)
    t137 = abs(t40)
    t138 = min(t129 + t130 + t131 + t132 + t133 + t134 + t135 + t136 + t137, max(t129, t130, t131, t132, t133, t134, t135, t136, t137))
    t139 = abs(t41)
    t140 = abs(t42)
    t141 = abs(t43)
    t142 = abs(t44)
    t143 = abs(t45)
    t144 = abs(t46)
    t145 = abs(t47)
    t146 = abs(t48)
    t147 = abs(t49)
    t148 = min(t139 + t140 + t141 + t142 + t143 + t144 + t145 + t146 + t147, max(t139, t140, t141, t142, t143, t144, t145, t146, t147))
    t149 = abs(a)
    t150 = abs(b)
    t151 = abs(t138)
    t152 = abs(t148)
    t153 = abs(t109)
    t154 = abs(t110)
    t155 = abs(t111)
    t156 = abs(t112)
    t157 = abs(t113)
    t158 = abs(t114)
    t159 = abs(t115)
    t160 = abs(t116)
    t161 = abs(t117)
    t162 = abs(t118)
    t163 = abs(t119)
    t164 = abs(t120)
    t165 = abs(t121)
    t166 = abs(t122)
    t167 = abs(t123)
    t168 = abs(t124)
    t169 = abs(t125)
    t170 = abs(t126)
    t171 = abs(t127)
    t172 = abs(t128)
    t173 = min(t153 + t154 + t155 + t156 + t157 + t158 + t159 + t160 + t161 + t162 + t163 + t164 + t165 + t166 + t167 + t168 + t169 + t170 + t171 + t172, max(t153, t154, t155, t156, t157, t158, t159, t160, t161, t162, t163, t164, t165, t166, t167, t168, t169, t170, t171, t172))
    t174 = abs(q00)
    t175 = abs(q01)
    t176 = abs(q02)
    t177 = abs(q10)
    t178 = abs(q11)
    t179 = abs(q12)
    t180 = abs(q20)
    t181 = abs(q21)
    t182 = abs(q22)
    t183 = min(t174 + t175 + t176 + t177 + t178 + t179 + t180 + t181 + t182, max(t174, t175, t176, t177, t178, t179, t180, t181, t182))
    t184 = t138 * t148
    t185 = t149 * t150 + t184
    t186 = t4 * t4
    t187 = max(abs(t183 * t14), 1e-300)
    t188 = (q00 * p01 + q10 * p11 + q20 * p21 - (q01 * p00 + q11 * p10 + q21 * p20)) / t187
    t189 = (q00 * p02 + q10 * p12 + q20 * p22 - (q02 * p00 + q12 * p10 + q22 * p20)) / t187
    t190 = (q01 * p02 + q11 * p12 + q21 * p22 - (q02 * p01 + q12 * p11 + q22 * p21)) / t187
    t191 = t60 - t59
    t192 = (t186 - (-(t191 * t191) - 4.0 * (a * t106 + b * t104) + 4.0 * (t54 * t58 - t55 * t57 + (t50 * t58 - t52 * t56) + (t50 * t54 - t51 * t53)))) / max(abs(t186), abs(t185 * t185), abs(t149 * t148 * t148 * t148), abs(t150 * t138 * t138 * t138), abs(t184 * t138 * t148), 1e-300)
    t193 = max(abs(t173 * t14), 1e-300)
    t194 = (t111 * p01 + t114 * p11 + t117 * p21 - (t112 * p00 + t115 * p10 + t118 * p20)) / t193
    t195 = (t123 * p00 + t124 * p01 + t125 * p02 - (t120 * p10 + t121 * p11 + t122 * p12)) / t193
    t196 = (t113 * p00 + t116 * p10 + t119 * p20 - (t111 * p02 + t114 * p12 + t117 * p22)) / t193
    t197 = (t120 * p20 + t121 * p21 + t122 * p22 - (t126 * p00 + t127 * p01 + t128 * p02)) / t193
    t198 = (t112 * p02 + t115 * p12 + t118 * p22 - (t113 * p01 + t116 * p11 + t119 * p21)) / t193
    t199 = (t126 * p10 + t127 * p11 + t128 * p12 - (t123 * p20 + t124 * p21 + t125 * p22)) / t193
    t200 = 2.0 * (t41 * t30 + t42 * t32 + t43 * t34)
    t201 = 2.0 * (t41 * t36 + t42 * t38 + t43 * t40)
    t202 = 2.0 * (t44 * t24 + t45 * t26 + t46 * t28)
    t203 = 2.0 * (t44 * t36 + t45 * t38 + t46 * t40)
    t204 = 2.0 * (t47 * t24 + t48 * t26 + t49 * t28)
    t205 = 2.0 * (t47 * t30 + t48 * t32 + t49 * t34)
    t206 = -2.0 * t51
    t207 = -2.0 * t52
    t208 = -2.0 * t53
    t209 = -2.0 * t55
    t210 = -2.0 * t56
    t211 = -2.0 * t57
    t212 = 2.0 * (t41 * t24 + t42 * t26 + t43 * t28) + t191
    t213 = -2.0 * t50 - t191
    t214 = 2.0 * (t44 * t30 + t45 * t32 + t46 * t34) + t191
    t215 = -2.0 * t54 - t191
    t216 = 2.0 * (t47 * t36 + t48 * t38 + t49 * t40) + t191
    t217 = -2.0 * t58 - t191
    t218 = -2.0 * (a * t41 - t84)
    t219 = -2.0 * (a * t42 - t87)
    t220 = -2.0 * (a * t43 - t88)
    t221 = -2.0 * (a * t44 - t89)
    t222 = -2.0 * (a * t45 - t90)
    t223 = -2.0 * (a * t46 - t91)
    t224 = -2.0 * (a * t47 - t92)
    t225 = -2.0 * (a * t48 - t93)
    t226 = -2.0 * (a * t49 - t94)
    t227 = 2.0 * (b * t24 - t64)
    t228 = 2.0 * (b * t30 - t69)
    t229 = 2.0 * (b * t36 - t72)
    t230 = 2.0 * (b * t26 - t67)
    t231 = 2.0 * (b * t32 - t70)
    t232 = 2.0 * (b * t38 - t73)
    t233 = 2.0 * (b * t28 - t68)
    t234 = 2.0 * (b * t34 - t71)
    t235 = 2.0 * (b * t40 - t74)
    t236 = t212 / t4
    t237 = p00 * t218 + p01 * t219 + p02 * t220
    t238 = p00 * t221 + p01 * t222 + p02 * t223
    t239 = p00 * t224 + p01 * t225 + p02 * t226
    t240 = p10 * t218 + p11 * t219 + p12 * t220
    t241 = p10 * t221 + p11 * t222 + p12 * t223
    t242 = p10 * t224 + p11 * t225 + p12 * t226
    t243 = p20 * t218 + p21 * t219 + p22 * t220
    t244 = p20 * t221 + p21 * t222 + p22 * t223
    t245 = p20 * t224 + p21 * t225 + p22 * t226
    t246 = p00 * t227 + p10 * t228 + p20 * t229
    t247 = p00 * t230 + p10 * t231 + p20 * t232
    t248 = p00 * t233 + p10 * t234 + p20 * t235
    t249 = p01 * t227 + p11 * t228 + p21 * t229
    t250 = p01 * t230 + p11 * t231 + p21 * t232
    t251 = p01 * t233 + p11 * t234 + p21 * t235
    t252 = p02 * t227 + p12 * t228 + p22 * t229
    t253 = p02 * t230 + p12 * t231 + p22 * t232
    t254 = p02 * t233 + p12 * t234 + p22 * t235
    t255 = abs(t188)
    t256 = abs(t189)
    t257 = abs(t190)
    t258 = abs(t194)
    t259 = abs(t195)
    t260 = abs(t196)
    t261 = abs(t197)
    t262 = abs(t198)
    t263 = abs(t199)
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
            t105,
            t107,
            t75,
            t76,
            t77,
            t78,
            t79,
            t80,
            t81,
            t82,
            t83,
            t95,
            t96,
            t97,
            t98,
            t99,
            t100,
            t101,
            t102,
            t103,
        ],
        [
            t109,
            t110,
            t111,
            t112,
            t113,
            t114,
            t115,
            t116,
            t117,
            t118,
            t119,
            t120,
            t121,
            t122,
            t123,
            t124,
            t125,
            t126,
            t127,
            t128,
        ],
        (
            min(t149 + t150 + t151 + t152, max(t149, t150, t151, t152)),
            t173,
            t14,
            t183,
            t138,
            t148,
        ),
        [
            t188,
            t189,
            t190,
            t192,
            t194,
            t195,
            t196,
            t197,
            t198,
            t199,
        ],
        (
            min(t255 + t256 + t257, max(t255, t256, t257)),
            abs(t192),
            min(t258 + t259 + t260 + t261 + t262 + t263, max(t258, t259, t260, t261, t262, t263)),
        ),
        abs(t236 * t236 + t200 / t4 * (t202 / t4) + t201 / t4 * (t204 / t4) + t218 / t4 * (t227 / t4) + t219 / t4 * (t230 / t4) + t220 / t4 * (t233 / t4) + 1.0),
        (
            [
                t237 + t237,
                t238 + t240,
                t239 + t243,
                t240 + t238,
                t241 + t241,
                t242 + t244,
                t243 + t239,
                t244 + t242,
                t245 + t245,
            ],
            [
                p00 * t213 + p01 * t206 + p02 * t207 - (t212 * p00 + t200 * p10 + t201 * p20),
                p00 * t208 + p01 * t215 + p02 * t209 - (t212 * p01 + t200 * p11 + t201 * p21),
                p00 * t210 + p01 * t211 + p02 * t217 - (t212 * p02 + t200 * p12 + t201 * p22),
                p10 * t213 + p11 * t206 + p12 * t207 - (t202 * p00 + t214 * p10 + t203 * p20),
                p10 * t208 + p11 * t215 + p12 * t209 - (t202 * p01 + t214 * p11 + t203 * p21),
                p10 * t210 + p11 * t211 + p12 * t217 - (t202 * p02 + t214 * p12 + t203 * p22),
                p20 * t213 + p21 * t206 + p22 * t207 - (t204 * p00 + t205 * p10 + t216 * p20),
                p20 * t208 + p21 * t215 + p22 * t209 - (t204 * p01 + t205 * p11 + t216 * p21),
                p20 * t210 + p21 * t211 + p22 * t217 - (t204 * p02 + t205 * p12 + t216 * p22),
            ],
            [
                -(t246 + t246),
                -(t247 + t249),
                -(t248 + t252),
                -(t249 + t247),
                -(t250 + t250),
                -(t251 + t253),
                -(t252 + t248),
                -(t253 + t251),
                -(t254 + t254),
            ],
        ),
    )
