"""Dormand-Prince 8(5,3) integration in numpy alone.

A step-by-step port of ``scipy.integrate.solve_ivp(method="DOP853",
dense_output=True)`` in either direction: the same tableau and dense-output
stages (Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations
I*, 2nd ed., Sec. II.5 and II.6), the same starting step (Sec. II.4), error
norm and controller, the same signed step clipped at the range's end, the
same dense-output piece at a node (the one that ends there), and the same
stop when the step size collapses below the spacing of floats, as at a pole.
Every floating-point operation is the one scipy makes, in the same
order, so nodes, node values and dense values agree with it bit for bit;
only the import of ``scipy.integrate`` is saved.

Callers import this module inside the functions that integrate, so a
command that never integrates does not load it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# Step controller: safety factor, bounds on the step-size change, and the
# exponent -1/(q+1) of the order-7 error estimate.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

N_STAGES = 12

C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])

# Nonzero entries of each row of the extended tableau: rows 1-11 are the
# stages of a step, row 12 the weights B, rows 13-15 the extra stages of
# the dense output.
_A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
}
A = np.zeros((16, 16))
for _row, _entries in _A_ROWS.items():
    for _col, _value in _entries.items():
        A[_row, _col] = _value

B = A[N_STAGES, :N_STAGES]

# Weights of the 3rd- and 5th-order error estimators, over the 12 stages and
# the derivative at the step's end.
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
]

# The four highest coefficient rows of the degree-7 dense output, over the
# 16 extended stages (the first three rows come from the step's ends).
D = np.zeros((4, 16))
_D_COLS = [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
D[0, _D_COLS] = [
    -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1,
]
D[1, _D_COLS] = [
    0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2,
]
D[2, _D_COLS] = [
    0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2,
]
D[3, _D_COLS] = [
    -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3,
]


def _rms(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v)) / v.size ** 0.5


def _initial_step(fun, t0, y0, f0, t1, direction, rtol, atol) -> float:
    """Starting step |h| from the size of y, y' and an estimate of y''."""
    interval = abs(t1 - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def _error_norm(K: np.ndarray, h: float, scale: np.ndarray) -> float:
    """RMS norm of the 5th-order error estimate, damped by the 3rd-order one."""
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    n5 = np.linalg.norm(err5) ** 2
    n3 = np.linalg.norm(err3) ** 2
    if n5 == 0 and n3 == 0:
        return 0.0
    return abs(h) * n5 / np.sqrt((n5 + 0.01 * n3) * scale.size)


class Dop853Solution:
    """Nodes ``t``, node values ``y`` (n, len(t)) and the dense output of
    one integration.

    ``message`` is None when the integration reached its end; otherwise the
    step size collapsed and the nodes end at the last accepted step.
    Calling the solution evaluates the dense output: shape (n,) at a scalar,
    (n, m) at m points; a node takes the piece that ends there, in the
    direction of integration.
    """

    def __init__(self, t, y, F, direction, message=None):
        self.t = np.array(t)
        self.y = np.array(y).T
        self._F = np.array(F)
        self._direction = direction
        self._keys = direction * self.t[1:-1]  # inner nodes, ascending either way
        self.message = message

    def __call__(self, x):
        x = np.asarray(x, float)
        k = self._keys.searchsorted(self._direction * x, "left")
        return _horner(self._F[k], self.y.T[k], (x - self.t[k]) / (self.t[k + 1] - self.t[k]))


def _horner(F: np.ndarray, y_old: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Dense output at the fractions ``s`` of their steps, in the nested
    form y_old + s(F0 + (1-s)(F1 + s(F2 + ...)))."""
    if np.ndim(s):
        s = s[:, None]
    y = np.zeros(y_old.shape)
    for i in range(F.shape[-2] - 1, -1, -1):
        y += F[..., i, :]
        y *= s if i % 2 == 0 else 1 - s
    y += y_old
    return y.T


def integrate(fun: Callable, t0: float, t1: float, y0, rtol: float, atol: float) -> Dop853Solution:
    """Integrate y' = fun(t, y) from ``t0`` to ``t1`` with dense output.

    ``t1`` may lie on either side of ``t0``; the range must be finite and
    nonempty.  A step size that falls below the float spacing at t, or is
    NaN, stops the integration with ``message`` set.
    """
    t0, t1 = float(t0), float(t1)
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 != t1):
        raise ValueError("integrate needs a finite range with t0 != t1")
    direction = 1.0 if t1 > t0 else -1.0
    y = np.asarray(y0, float)

    def f_of(t, v):
        return np.asarray(fun(t, v), dtype=float)

    t, f = t0, f_of(t0, y)
    h_abs = _initial_step(f_of, t, y, f, t1, direction, rtol, atol)
    K = np.empty((16, y.size))
    ts, ys, Fs = [t0], [y], []
    while direction * (t - t1) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                return Dop853Solution(ts, ys, Fs, direction, TOO_SMALL_STEP)
            t_new = min(t + h_abs, t1) if direction > 0 else max(t - h_abs, t1)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, N_STAGES):
                K[s] = f_of(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
            y_new = y + h * np.dot(K[:N_STAGES].T, B)
            f_new = f_of(t + h, y_new)
            K[N_STAGES] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _error_norm(K[: N_STAGES + 1], h, scale)
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err**ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err**ERROR_EXPONENT)
            rejected = True

        # Dense output of the accepted step: three extra stages, then the
        # degree-7 coefficient rows.
        for s in range(N_STAGES + 1, 16):
            K[s] = f_of(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
        dy = y_new - y
        F = np.empty((7, y.size))
        F[0] = dy
        F[1] = h * K[0] - dy
        F[2] = 2 * dy - h * (f_new + K[0])
        F[3:] = h * np.dot(D, K)
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        Fs.append(F)
    return Dop853Solution(ts, ys, Fs, direction)
