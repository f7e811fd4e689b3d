"""The Gram contraction shared by the solid-cone and conic-surface families.

Every element is a product of factors, each a function of one coordinate
of a tensor-product rule: on the conic surface radial(t) t^m at the
t-nodes times a harmonic Y at the sphere nodes; on the solid cone
radial(t) t^m times the ball factor R(r) = P_j(2r^2 - 1) r^k at the
ball's radii times a harmonic at the sphere nodes.  The product-rule Gram
sum then splits exactly into small factor Grams, contracted entrywise:

    G = (R W_t R^T)[n,m] * (J W_r J^T)[j,k] * (H W_s H^T)[k,l]

Each factor's rows hold its distinct factors at its nodes, and the
indices map elements to their rows.  No factor Gram is assumed to be the
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


def separable_gram(elements, factors, expected, unit_norm_dev: float) -> GramResult:
    """Gram matrix of elements under a normalized tensor-product rule.

    factors lists (weights, key, row) per rule factor: weights at its
    nodes, key(element) naming the element's factor, shared by elements
    with the same factor, and row(element) that factor at the nodes, read
    once per key; expected holds the predicted diagonal and unit_norm_dev
    the rule's |mass - 1|."""
    gram = 1.0
    for weights, key, row in factors:
        first: dict = {}  # key -> (row index, first element with that key)
        idx = np.array([first.setdefault(key(e), (len(first), e))[0] for e in elements])
        rows = np.vstack([np.broadcast_to(row(e), weights.shape) for _, e in first.values()])
        gram = gram * ((rows * weights) @ rows.T)[idx][:, idx]
    expected = np.asarray(expected, dtype=float)
    normalized = gram / np.sqrt(np.outer(expected, expected))
    off = normalized - np.diag(np.diag(normalized))
    max_off = float(np.max(np.abs(off))) if len(elements) > 1 else 0.0
    max_diag_rel = float(np.max(np.abs(np.diag(gram) - expected) / expected))
    return GramResult(tuple(elements), gram, expected, max_off, max_diag_rel, unit_norm_dev)


def t_factor(t_rule, values):
    """The t factor of a cone or surface element: values(n, m, ts) ts^m,
    the radial factor times the power its angular part contributes."""
    ts = np.asarray(t_rule.nodes)
    return (
        np.asarray(t_rule.weights), lambda e: (e.n, e.m), lambda e: values(e.n, e.m, ts) * ts**e.m
    )


def sphere_factor(sphere, key, harmonic):
    """The sphere factor: harmonic(element) at the sphere nodes."""
    at_unit_t = np.column_stack([sphere.points, np.ones(len(sphere.points))])
    return sphere.weights, key, lambda e: harmonic(e).evaluate_many(at_unit_t)
