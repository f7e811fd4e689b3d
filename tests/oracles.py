"""Reference implementations the tests compare the library against.

None of these is on the library's path: each is the straightforward
algorithm a library function replaces, or a closed form only the tests
read.
"""

import numpy as np

from finitecone.errors import DegenerateParamError, ValidityError
from finitecone.polyalg import MultiPoly, OperatorSpec, apply_operator
from finitecone.scalars import factorial_real, pochhammer
from finitecone.unipoly import UniPoly
from finitecone.univariate import _m_step, _n_step

VAR_T = "t"


def partial(p, var):
    """Exact formal derivative of p with respect to x_i (var = i) or t."""
    slot = p.dim_x if var == VAR_T else var
    out: dict = {}
    for e, c in p.terms.items():
        if e[slot] == 0:
            continue
        ne = list(e)
        ne[slot] -= 1
        out[tuple(ne)] = out.get(tuple(ne), 0.0) + c * e[slot]
    return MultiPoly(p.dim_x, {e: c for e, c in out.items() if c != 0.0})


def laplacian_x(dim_x: int) -> OperatorSpec:
    return OperatorSpec.from_pseudo(dim_x, [(1.0, "laplace", 0)])


def apply_operator_termwise(op, p):
    """The term-by-term algorithm apply_operator replaces: differentiate
    through partial(), multiply by the coefficient, add into the output."""
    out = MultiPoly.zero(p.dim_x)
    for coeff, deriv in op.terms:
        q = p
        for slot, order in enumerate(deriv):
            var = VAR_T if slot == p.dim_x else slot
            for _ in range(order):
                q = partial(q, var)
        if not q.is_zero():
            out = out + coeff * q
    return out


def angular_block(op, angular):
    """One m's block the way it was built before the batched kernel: each
    L_i of op.t_split applied to each angular factor A_k on its own, then
    A_k itself, as x[k, a, slot, g] over the sorted alphas (x-exponents),
    with g the total degree minus g0.  Returns (x, alphas, g0)."""
    cells = {}
    for slot, li in enumerate(op.t_split + (None,)):
        for k, a in enumerate(angular):
            image = a if li is None else apply_operator_termwise(li, a)
            for e, c in image.terms.items():
                cells[k, e[:-1], slot, sum(e)] = c
    alphas = sorted({alpha for _, alpha, _, _ in cells})
    g0 = min(g for *_, g in cells)
    x = np.zeros((len(angular), len(alphas), len(op.t_split) + 1, max(g for *_, g in cells) - g0 + 1))
    for (k, alpha, slot, g), c in cells.items():
        x[k, alphas.index(alpha), slot, g - g0] = c
    return x, alphas, g0


def element_residual(params, element):
    """The per-element path the (n, m) blocks replace, in its floating-point
    order: the family's operator applied to the multiplied-out element R A,
    minus the eigenvalue term and, for N, plus the p - 2 companion times
    the same angular factor."""
    n, m = element.n, element.m
    d, mu, p = params.d, params.mu, params.p
    lhs = apply_operator(params.operator, element.poly)
    if params.family == "M":
        return lhs - element.poly.scale(n * (n - p + 2 * mu + d))
    if params.family == "L":
        return lhs + element.poly.scale(n)
    rhs = element.poly.scale(n * (n + 2 * mu + d - p))
    if n > m:
        shifted = params.companion
        shifted.require_valid(n - 1)
        comp = MultiPoly.from_unipoly_t(shifted.radial(n - 1, m), d) * element.angular
        rhs = rhs - comp.scale((n - m) * (p - 2 * mu - m - n - d))
    return lhs - rhs


def ball_operator_spec(d: int, mu: float) -> OperatorSpec:
    """Second-order operator whose eigenfunctions the ball basis is."""
    return OperatorSpec.from_pseudo(
        d,
        [
            (1.0, "laplace", 0),
            (-1.0, "euler2", 0),
            (-(2 * mu + d - 1), "euler", 0),
        ],
    )


def ball_operator_residual(d: int, mu: float, element) -> MultiPoly:
    """Residual of the ball operator applied to a basis element minus its
    eigenvalue -n(n + 2mu + d - 1); zero up to rounding."""
    n = element.degree
    op = ball_operator_spec(d, mu)
    return apply_operator(op, element.poly) + element.poly.scale(n * (n + 2 * mu + d - 1))


def norm_laguerre(n: int, alpha: float) -> float:
    """Norm square of L_n^alpha under the normalized Gamma weight."""
    if alpha <= -1:
        raise ValidityError("alpha > -1", f"alpha = {alpha}")
    return pochhammer(alpha + 1, n) / factorial_real(n)



def _check_chain(p, n):
    # recurrence steps k = 1 .. n-1 divide by (p - (k+1)) and (p - 2k)
    for k in range(1, n):
        if p - (k + 1) == 0.0 or p - 2 * k == 0.0:
            raise DegenerateParamError(f"recurrence denominator vanishes at step {k}: p = {p}")


def coeffs_m_loop(n, params):
    """The first-class coefficients by the loop the recurrence chain
    replaces: every denominator checked first, then run from degree 0."""
    p, q = params.p, params.q
    if n == 0:
        return UniPoly.one()
    _check_chain(p, n)
    prev, cur = UniPoly.one(), UniPoly((-(q + 1.0), p - 2.0))
    for k in range(1, n):
        a, b, c = _m_step(p, q, k)
        prev, cur = cur, cur.shift_up().scale(a) + cur.scale(b) - prev.scale(c)
    return cur


def coeffs_n_loop(n, params):
    """The second-class coefficients by the loop the chain replaces."""
    p = params.p
    if n == 0:
        return UniPoly.one()
    _check_chain(p, n)
    prev, cur = UniPoly.one(), UniPoly((-1.0, p - 2.0))
    for k in range(1, n):
        a, b, c = _n_step(p, k)
        prev, cur = cur, cur.shift_up().scale(a) + cur.scale(b) - prev.scale(c)
    return cur


def coeffs_laguerre_loop(n, alpha):
    """The Laguerre coefficients by the loop the chain replaces."""
    if alpha <= -1:
        raise ValidityError("alpha > -1", f"alpha = {alpha}")
    if n == 0:
        return UniPoly.one()
    prev, cur = UniPoly.one(), UniPoly((alpha + 1.0, -1.0))
    for k in range(1, n):
        nxt = (cur.scale(2 * k + alpha + 1) - cur.shift_up() - prev.scale(k + alpha)).scale(
            1.0 / (k + 1)
        )
        prev, cur = cur, nxt
    return cur


def recurrence_residual_multiplied(params, n, m, variant="derived"):
    """The cone recurrence row the way it was computed before the angular
    factor was divided out: each of the three elements R_k A multiplied
    out (A the first degree-m ball element homogenized), the residual
    formed in (x, t) space and taken relative to the degree-(n+1) element."""
    from finitecone.cone_solid import recurrence_coefficients

    params.require_valid(n + 1)
    ang = params.balls(m)[0].homogeneous
    d = params.d
    e_prev, e_cur, e_next = (
        MultiPoly.from_unipoly_t(params.radial(k, m, "rodrigues"), d) * ang
        for k in (n - 1, n, n + 1)
    )
    t = MultiPoly.var_t(d)
    if params.family == "L":
        mu, beta = params.mu, params.beta
        lhs = e_next.scale(n - m + 1)
        rhs = e_cur.scale(d + beta + 2 * mu + 2 * n) - t * e_cur - e_prev.scale(
            d + beta + 2 * mu + m + n - 1
        )
        return (lhs - rhs).rel_residual_against(e_next.scale(n - m + 1))
    a, b, c = recurrence_coefficients(params, n, m, variant)
    residual = e_next - (t.scale(a) * e_cur + e_cur.scale(b)) + e_prev.scale(c)
    return residual.rel_residual_against(e_next)


def limit_deviations_cone(params, n, m, p_grid=(1e2, 1e3, 1e4)):
    """The solid-cone limit deviations the way they were computed before
    the angular factor was divided out: p^m (R_p A)(x/p, t/p) multiplied
    out term by term, and the multiplied-out target (-1)^(n-m) (n-m)! L A,
    each evaluated at the sample grid."""
    from finitecone.cone_solid import ConeFamilyParams, cone_sample_grid

    d, mu, q = params.d, params.mu, params.q
    ang = params.balls(m)[0].homogeneous
    target_radial = ConeFamilyParams(d, mu, "L", beta=q, limit_target=True).radial(n, m)
    sign = -1.0 if (n - m) % 2 else 1.0
    target = (MultiPoly.from_unipoly_t(target_radial, d) * ang).scale(sign * factorial_real(n - m))
    grid = cone_sample_grid(d)
    target_vals = target.evaluate_many(grid)
    deviations = []
    for p in p_grid:
        trial = ConeFamilyParams(d, mu, "M", p=float(p), q=q)
        poly = MultiPoly.from_unipoly_t(trial.radial(n, m), d) * ang
        scaled = MultiPoly(d, {e: c * float(p) ** (m - sum(e)) for e, c in poly.terms.items()})
        deviations.append(float(np.max(np.abs(scaled.evaluate_many(grid) - target_vals))))
    return deviations


def limit_deviations_surface(params, n, m, p_grid=(1e2, 1e3, 1e4)):
    """The conic-surface limit deviations the way they were computed on
    their own: the scaled radial factor minus the target, lifted to (x, t),
    multiplied by the first degree-m harmonic and evaluated at the grid."""
    from finitecone.cone_surface import SurfaceParams, surface_sample_grid

    d, q = params.d, params.q
    y = params.harmonics(m)[0]
    sign = -1.0 if (n - m) % 2 else 1.0
    target_radial = SurfaceParams(d, "L", beta=q).radial(n, m).scale(sign * factorial_real(n - m))
    grid = surface_sample_grid(d)
    deviations = []
    for p in p_grid:
        radial = SurfaceParams(d, "M", p=float(p), q=q).radial(n, m)
        scaled = UniPoly(tuple(c * float(p) ** (-k) for k, c in enumerate(radial.coeffs)))
        diff = MultiPoly.from_unipoly_t(scaled - target_radial, d) * y
        deviations.append(float(np.max(np.abs(diff.evaluate_many(grid)))))
    return deviations
