"""The Gram contraction shared by the solid-cone and conic-surface families.

Every element is radial(t) t^m A(y) at the rule point (t y, t): a radial
polynomial, the power t^m its homogeneous angular part contributes, and an
angular factor A evaluated on the unit ball (solid cone, A a ball
polynomial) or the unit sphere (surface, A a harmonic).  The rule is the
tensor product of a t-rule and an angular rule, so the product-rule Gram
sum splits exactly into two small Grams, contracted entrywise:

    G = (R W_t R^T)[r, r] * (A W_a A^T)[a, a]

R holds radial(t_i) t_i^m for each distinct (n, m), A each distinct
angular factor at the angular nodes, and r, a map elements to their rows.
The angular Gram is computed by quadrature, never assumed to be the
identity, so the certificate stays independent of the closed-form norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GramResult:
    elements: tuple
    matrix: np.ndarray
    expected_diag: np.ndarray
    max_offdiag: float  # normalized by sqrt of expected diagonal products
    max_diag_rel: float
    unit_norm_dev: float  # |<1,1> - 1|


def _distinct(keys):
    """Distinct keys in first-seen order, and each key's position there."""
    first: dict = {}
    idx = [first.setdefault(k, len(first)) for k in keys]
    return list(first), np.array(idx, dtype=int)


def separable_gram(elements, factors, radial_values, angular_factor, expected) -> GramResult:
    """Gram matrix of elements under the normalized tensor-product rule.

    elements carry n and m; factors is a quadrature.FactorRules pair;
    radial_values(n, m, ts) evaluates the radial factor at the t-nodes;
    angular_factor(element) returns (key, MultiPoly), the key shared by
    elements with the same angular factor; expected holds the predicted
    diagonal."""
    ts = np.asarray(factors.t_rule.nodes)
    radial_keys, r_idx = _distinct((e.n, e.m) for e in elements)
    radial = np.vstack([radial_values(n, m, ts) * ts**m for n, m in radial_keys])
    radial_gram = (radial * np.asarray(factors.t_rule.weights)) @ radial.T

    pairs = [angular_factor(e) for e in elements]
    polys = dict(pairs)
    angular_keys, a_idx = _distinct(key for key, _ in pairs)
    y = factors.angular.points
    at_unit_t = np.column_stack([y, np.ones(len(y))])
    angular = np.vstack([polys[k].evaluate_many(at_unit_t) for k in angular_keys])
    angular_gram = (angular * factors.angular.weights) @ angular.T

    gram = radial_gram[np.ix_(r_idx, r_idx)] * angular_gram[np.ix_(a_idx, a_idx)]
    expected = np.asarray(expected, dtype=float)
    normalized = gram / np.sqrt(np.outer(expected, expected))
    off = normalized - np.diag(np.diag(normalized))
    max_off = float(np.max(np.abs(off))) if len(elements) > 1 else 0.0
    max_diag_rel = float(np.max(np.abs(np.diag(gram) - expected) / expected))
    unit_dev = abs(factors.total_weight - 1.0)
    return GramResult(tuple(elements), gram, expected, max_off, max_diag_rel, unit_dev)
