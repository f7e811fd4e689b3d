"""Reference implementations the tests compare the library against.

None of these is on the library's path: each is the straightforward
algorithm a library function replaces, or a closed form only the tests
read.
"""

from finitecone.errors import ValidityError
from finitecone.polyalg import MultiPoly, OperatorSpec, apply_operator
from finitecone.scalars import factorial_real, pochhammer

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

