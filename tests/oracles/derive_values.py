"""Independent derivations for the frozen constants used in the test suite.

Every value asserted with a tight tolerance in the tests is reproduced here
by a route that shares no code with the package: closed forms evaluated with
numpy scalar functions, cross-checked by a fine-step classical RK4 integration
of the underlying ODEs, plus np.roots for polynomial inversion. Run as

    python3 tests/oracles/derive_values.py

and compare the printed numbers against the constants in the test modules.
This script intentionally never imports the package.
"""

import numpy as np


def rk4(f, y0, t1, n):
    y = np.asarray(y0, dtype=float)
    h = t1 / n
    t = 0.0
    for _ in range(n):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def main():
    print("# linear characteristics: dx/dt = u, du/dt = x from (1, 0) at t = 1")
    print("# matrix exponential of [[0,1],[1,0]] gives (cosh t, sinh t)")
    xu = rk4(lambda t, y: np.array([y[1], y[0]]), [1.0, 0.0], 1.0, 400_000)
    print(f"cosh(1) = {np.cosh(1.0):.16g}   rk4 check {xu[0]:.16g}")
    print(f"sinh(1) = {np.sinh(1.0):.16g}   rk4 check {xu[1]:.16g}")
    print()

    print("# affine ansatz U = a(t) x + b(t) for velocity = value, source = K x:")
    print("# a' = K - a^2, b' = -a b, a(0) = 1/eps, b(0) = -x0/eps")
    K, eps, x0 = 1.0, 0.1, 0.5
    th0 = np.arctanh(np.sqrt(K) * eps)

    def slope(t):
        return np.sqrt(K) / np.tanh(np.sqrt(K) * t + th0)

    def offset(t):
        return -(x0 / eps) * np.sinh(th0) / np.sinh(np.sqrt(K) * t + th0)

    for t in (0.3, 0.4):
        ab = rk4(lambda s, y: np.array([K - y[0] ** 2, -y[0] * y[1]]),
                 [1.0 / eps, -x0 / eps], t, 400_000)
        print(f"t={t}: a = {slope(t):.16g} (rk4 {ab[0]:.16g}), "
              f"b = {offset(t):.16g} (rk4 {ab[1]:.16g})")
    print(f"U(0.4, 1.2) = {slope(0.4) * 1.2 + offset(0.4):.16g}")
    print(f"U(0.3, 1.0) = {slope(0.3) * 1.0 + offset(0.3):.16g}")
    print()

    print("# relabeling jump, d=1, scalar S: U = a(t) x with")
    print("# a' = -a^2 - kappa a, kappa = lam (1 - S^2), a(0) = 1/eps")
    lam, S, eps = 1.0, 0.5, 0.1
    kappa = lam * (1.0 - S ** 2)
    a0 = 1.0 / eps
    t = 0.5
    a_closed = kappa / ((kappa / a0 + 1.0) * np.exp(kappa * t) - 1.0)
    a_rk = rk4(lambda s, y: np.array([-y[0] ** 2 - kappa * y[0]]), [a0], t, 400_000)
    print(f"a(0.5) = {a_closed:.16g} (rk4 {a_rk[0]:.16g})")
    print()

    print("# cubic resolvent: y + delta*(y^3 + y) = x, delta=0.5, x=2")
    delta, x = 0.5, 2.0
    roots = np.roots([delta, 0.0, 1.0 + delta, -x])
    y_star = float(roots[np.abs(roots.imag) < 1e-12].real[0])
    print(f"y*      = {y_star:.16g}")
    print(f"U(y*)   = {y_star ** 3 + y_star:.16g}")
    print()

    print("# gradient-bound certificate horizon, alpha=1, |DxG|=1, |DpF|=1000:")
    print("# with beta = t/2, gamma = t^2 the two conditions read")
    print("#   c1 = 1 - t/2 - 1/2 - 1000 t^2,  c2 = 2t - 1000 t^2 - t/2")
    alpha, gx, fp = 1.0, 1.0, 1000.0

    def c1(t):
        return alpha - (alpha * t / 2) * gx - alpha / 2 - gx * alpha * t ** 2 * fp

    def c2(t):
        return 2 * gx * alpha * t - gx * alpha * t ** 2 * fp - (alpha * t / 2) * gx

    lo, hi = 1e-9, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if c1(mid) >= 0 and c2(mid) >= 0:
            lo = mid
        else:
            hi = mid
    print(f"t_f bisection = {lo:.16g}")
    print(f"c2 root 1.5/|DpF| = {1.5 / fp:.16g}  (binding; c1 root is larger)")
    r = np.roots([1000.0, 0.5, -0.5])
    print(f"c1 root       = {float(r[r > 0][0]):.16g}")
    print()

    print("# certificate horizon of the 2-D stress model: alpha=1, |DxG|=1, |DpF|=1,")
    print("# lambda=1, |S|=0.5, so A = 1 - 0.75 = 0.25, k = 1, B = 0.75 - 1 = -0.25;")
    print("# c1/alpha = 1/2 - A t/2 - k t^2 binds, c2 = t (3/2 + B t) fails past 6")
    A, k = 0.25, 1.0
    print(f"c1 root 2/(A + sqrt(A^2 + 8k)) = {2.0 / (A + np.sqrt(A * A + 8.0 * k)):.16g}")
    r = np.roots([k, A / 2, -0.5])
    print(f"c1 root (np.roots)             = {float(r[r > 0][0]):.16g}")
    print()

    print("# penalization gap law for velocity = value, no source:")
    print("# sup_{t >= t_min} max_box |x - x0| * (1/(t+e2) - 1/(t+e1)), box [-1,2], x0=0.5")
    for e1, e2 in ((0.4, 0.2), (0.2, 0.1), (0.1, 0.05)):
        g = 1.5 * (1.0 / (0.2 + e2) - 1.0 / (0.2 + e1))
        print(f"eps {e1} -> {e2}: gap = {g:.16g}")


if __name__ == "__main__":
    main()
