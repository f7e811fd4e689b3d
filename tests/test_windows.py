"""Finite-orthogonality ceilings: max_degree is exactly the largest degree
require_valid accepts, for every bundle with a p window, including p on an
integer or half-integer edge."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finitecone.cone_solid import ConeFamilyParams
from finitecone.cone_surface import SurfaceParams
from finitecone.errors import ValidityError
from finitecone.univariate import MParams, NParams

# 2*mu + d is an integer or a half-integer for these mu
EDGE_MUS = (-0.25, 0.25, 0.5, 0.75, 1.0, 1.5)


@st.composite
def windowed_bundles(draw):
    """A bundle whose p sits on, next to, or anywhere near a window edge,
    with q (M families) inside its own window."""
    kind = draw(st.sampled_from(("uni-M", "uni-N", "cone-M", "cone-N", "surf-M", "surf-N")))
    d = draw(st.integers(1, 3))
    mu = draw(st.sampled_from(EDGE_MUS) | st.floats(-0.49, 3.0))
    edge = {"uni": 1.0, "cone": 2 * mu + d, "surf": float(d)}[kind.split("-")[0]]
    offset = draw(st.sampled_from((0.0, 0.5, -0.5, 1.0)) | st.floats(-1.0, 1.0))
    p = 2 * draw(st.integers(0, 12)) + edge + offset
    q = -edge + draw(st.floats(0.01, 3.0))
    family = kind[-1]
    if kind.startswith("uni"):
        return MParams(p, q) if family == "M" else NParams(p)
    if kind.startswith("cone"):
        return ConeFamilyParams(d, mu, family, p=p, q=q)
    return SurfaceParams(d, family, p=p, q=q)


# p exactly on an edge: 2N + 1, 2N + 2*mu + d or 2N + d at N = 4
@example(MParams(9.0, 0.0))
@example(NParams(9.0))
@example(ConeFamilyParams(1, 0.25, "N", p=9.5))
@example(ConeFamilyParams(2, 0.75, "M", p=11.5, q=0.0))
@example(SurfaceParams(3, "M", p=11.0, q=0.0))
@example(SurfaceParams(2, "N", p=10.0))
@settings(max_examples=300, deadline=None)
@given(windowed_bundles())
def test_max_degree_is_the_largest_valid_degree(params):
    top = params.max_degree
    if top >= 0:
        params.require_valid(top)
    with pytest.raises(ValidityError, match="p > 2N"):
        params.require_valid(top + 1)
