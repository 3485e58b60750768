"""The flow's straight-line kernel `rk4_step`, one RK4 step.  GENERATED
by tools/gen_kernels.py from the composed step there, whose four stages
are `flow.stage` (over `flow._recover9` and the composed F of the `mat3`
helpers): do not edit.  To change it, change `flow.stage` or the
composed forms and run

    python tools/gen_kernels.py

The kernel computes what its composed form computes, with the same
operations on the same operands in the same order, so the results agree
to the last bit.  It takes floats only: its guards compare |det P| with
the threshold, and it calls `math.sqrt`.  Every constant is written as a
float, as in every generated kernel.  Only `nhflat.flow` imports this
module."""

from math import sqrt

from nhflat.structure import SingularStructureError


def rk4_step(lam, sign, y, dy, h):
    """One classical RK4 step of size h from the flat state y, whose y' is
    dy (the step's k1); returns the state it reaches and that state's y',
    the next step's k1, as (y_next, dy_next).  Its four passes evaluate
    the equations (`flow.stage`) at y + (h/2) k1, y + (h/2) k2,
    y + h k3 and y_next = y + (h/6)(k1 + 2 k2 + 2 k3 + k4), with the sum
    added left to right.  Raises SingularStructureError where a pass
    does."""
    (a, b,
     u00, u01, u02, u10, u11, u12, u20, u21, u22,
     v00, v01, v02, v10, v11, v12, v20, v21, v22) = y
    (da, db,
     du00, du01, du02, du10, du11, du12, du20, du21, du22,
     dv00, dv01, dv02, dv10, dv11, dv12, dv20, dv21, dv22) = dy
    (sa, sb,
     su00, su01, su02, su10, su11, su12, su20, su21, su22,
     sv00, sv01, sv02, sv10, sv11, sv12, sv20, sv21, sv22) = dy
    half = 0.5 * h
    for c, w in ((half, 2.0), (half, 2.0), (h, 1.0), (h / 6.0, None)):
        t0 = a + c * da
        t1 = b + c * db
        t2 = u00 + c * du00
        t3 = u01 + c * du01
        t4 = u02 + c * du02
        t5 = u10 + c * du10
        t6 = u11 + c * du11
        t7 = u12 + c * du12
        t8 = u20 + c * du20
        t9 = u21 + c * du21
        t10 = u22 + c * du22
        t11 = v00 + c * dv00
        t12 = v01 + c * dv01
        t13 = v02 + c * dv02
        t14 = v10 + c * dv10
        t15 = v11 + c * dv11
        t16 = v12 + c * dv12
        t17 = v20 + c * dv20
        t18 = v21 + c * dv21
        t19 = v22 + c * dv22
        t20 = -(t2 + t11) / lam
        t21 = -(t3 + t12) / lam
        t22 = -(t4 + t13) / lam
        t23 = -(t5 + t14) / lam
        t24 = -(t6 + t15) / lam
        t25 = -(t7 + t16) / lam
        t26 = -(t8 + t17) / lam
        t27 = -(t9 + t18) / lam
        t28 = -(t10 + t19) / lam
        t29 = t24 * t28 - t25 * t27
        t30 = t23 * t28
        t31 = t25 * t26
        t32 = t23 * t27 - t24 * t26
        t33 = t20 * t29 - t21 * (t30 - t31) + t22 * t32
        if t33 <= 0.0:
            raise SingularStructureError(
                f"Adj(P^T) has nonpositive determinant {t33:.3e}; P is not recoverable"
            )
        t34 = sqrt(t33) * sign
        t35 = t29 / t34
        t36 = (t31 - t30) / t34
        t37 = t32 / t34
        t38 = (t22 * t27 - t21 * t28) / t34
        t39 = (t20 * t28 - t22 * t26) / t34
        t40 = (t21 * t26 - t20 * t27) / t34
        t41 = (t21 * t25 - t22 * t24) / t34
        t42 = (t22 * t23 - t20 * t25) / t34
        t43 = (t20 * t24 - t21 * t23) / t34
        if abs(t34) < 1e-06:
            raise SingularStructureError(f"det P = {t34:.3e} below threshold")
        t44 = t2 * t11 + t5 * t14 + t8 * t17
        t45 = t2 * t12 + t5 * t15 + t8 * t18
        t46 = t2 * t13 + t5 * t16 + t8 * t19
        t47 = t3 * t11 + t6 * t14 + t9 * t17
        t48 = t3 * t12 + t6 * t15 + t9 * t18
        t49 = t3 * t13 + t6 * t16 + t9 * t19
        t50 = t4 * t11 + t7 * t14 + t10 * t17
        t51 = t4 * t12 + t7 * t15 + t10 * t18
        t52 = t4 * t13 + t7 * t16 + t10 * t19
        t53 = t44 + t48 + t52
        t54 = t0 * t1
        t55 = t54 + t53
        t56 = 2.0 * t0
        t57 = 2.0 * t1
        t58 = t15 * t19 - t16 * t18
        t59 = t16 * t17
        t60 = t14 * t19
        t61 = t14 * t18 - t15 * t17
        t62 = t6 * t10 - t7 * t9
        t63 = t7 * t8
        t64 = t5 * t10
        t65 = t5 * t9 - t6 * t8
        t66 = -2.0 * lam / t34
        da = t66 * (t0 * t53 - 2.0 * (t2 * t62 - t3 * (t64 - t63) + t4 * t65) - t0 * t0 * t1)
        db = t66 * -(t1 * t53 - 2.0 * (t11 * t58 - t12 * (t60 - t59) + t13 * t61) - t54 * t1)
        du00 = t66 * -(t55 * t2 - t56 * t58 - 2.0 * (t2 * t44 + t3 * t45 + t4 * t46)) + t35
        du01 = t66 * -(t55 * t3 - t56 * (t59 - t60) - 2.0 * (t2 * t47 + t3 * t48 + t4 * t49)) + t36
        du02 = t66 * -(t55 * t4 - t56 * t61 - 2.0 * (t2 * t50 + t3 * t51 + t4 * t52)) + t37
        du10 = t66 * -(t55 * t5 - t56 * (t13 * t18 - t12 * t19) - 2.0 * (t5 * t44 + t6 * t45 + t7 * t46)) + t38
        du11 = t66 * -(t55 * t6 - t56 * (t11 * t19 - t13 * t17) - 2.0 * (t5 * t47 + t6 * t48 + t7 * t49)) + t39
        du12 = t66 * -(t55 * t7 - t56 * (t12 * t17 - t11 * t18) - 2.0 * (t5 * t50 + t6 * t51 + t7 * t52)) + t40
        du20 = t66 * -(t55 * t8 - t56 * (t12 * t16 - t13 * t15) - 2.0 * (t8 * t44 + t9 * t45 + t10 * t46)) + t41
        du21 = t66 * -(t55 * t9 - t56 * (t13 * t14 - t11 * t16) - 2.0 * (t8 * t47 + t9 * t48 + t10 * t49)) + t42
        du22 = t66 * -(t55 * t10 - t56 * (t11 * t15 - t12 * t14) - 2.0 * (t8 * t50 + t9 * t51 + t10 * t52)) + t43
        dv00 = t66 * (t55 * t11 - t57 * t62 - 2.0 * (t11 * t44 + t12 * t47 + t13 * t50)) - t35
        dv01 = t66 * (t55 * t12 - t57 * (t63 - t64) - 2.0 * (t11 * t45 + t12 * t48 + t13 * t51)) - t36
        dv02 = t66 * (t55 * t13 - t57 * t65 - 2.0 * (t11 * t46 + t12 * t49 + t13 * t52)) - t37
        dv10 = t66 * (t55 * t14 - t57 * (t4 * t9 - t3 * t10) - 2.0 * (t14 * t44 + t15 * t47 + t16 * t50)) - t38
        dv11 = t66 * (t55 * t15 - t57 * (t2 * t10 - t4 * t8) - 2.0 * (t14 * t45 + t15 * t48 + t16 * t51)) - t39
        dv12 = t66 * (t55 * t16 - t57 * (t3 * t8 - t2 * t9) - 2.0 * (t14 * t46 + t15 * t49 + t16 * t52)) - t40
        dv20 = t66 * (t55 * t17 - t57 * (t3 * t7 - t4 * t6) - 2.0 * (t17 * t44 + t18 * t47 + t19 * t50)) - t41
        dv21 = t66 * (t55 * t18 - t57 * (t4 * t5 - t2 * t7) - 2.0 * (t17 * t45 + t18 * t48 + t19 * t51)) - t42
        dv22 = t66 * (t55 * t19 - t57 * (t2 * t6 - t3 * t5) - 2.0 * (t17 * t46 + t18 * t49 + t19 * t52)) - t43
        if w is None:
            return (
                t0, t1,
                t2, t3, t4, t5, t6, t7, t8, t9, t10,
                t11, t12, t13, t14, t15, t16, t17, t18, t19,
            ), (
                da, db,
                du00, du01, du02, du10, du11, du12, du20, du21, du22,
                dv00, dv01, dv02, dv10, dv11, dv12, dv20, dv21, dv22,
            )
        sa += w * da
        sb += w * db
        su00 += w * du00
        su01 += w * du01
        su02 += w * du02
        su10 += w * du10
        su11 += w * du11
        su12 += w * du12
        su20 += w * du20
        su21 += w * du21
        su22 += w * du22
        sv00 += w * dv00
        sv01 += w * dv01
        sv02 += w * dv02
        sv10 += w * dv10
        sv11 += w * dv11
        sv12 += w * dv12
        sv20 += w * dv20
        sv21 += w * dv21
        sv22 += w * dv22
        if w == 1.0:
            da = sa
            db = sb
            du00 = su00
            du01 = su01
            du02 = su02
            du10 = su10
            du11 = su11
            du12 = su12
            du20 = su20
            du21 = su21
            du22 = su22
            dv00 = sv00
            dv01 = sv01
            dv02 = sv02
            dv10 = sv10
            dv11 = sv11
            dv12 = sv12
            dv20 = sv20
            dv21 = sv21
            dv22 = sv22
