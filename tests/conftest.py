"""Fixtures shared by the test modules."""

import pytest

from finitecone import univariate


@pytest.fixture
def chain_steps(monkeypatch):
    """chain_steps(name) patches univariate.<name>, a chain builder, and
    returns a list that gains, for every chain the builder starts, the list
    of the degrees that chain's steps compute, in order."""

    def patch(name):
        chains = []
        orig = getattr(univariate, name)

        def counted(*args):
            chain, degrees = orig(*args), []
            step = chain.step
            chains.append(degrees)

            def counted_step(k, prev, cur):
                degrees.append(k + 1)
                return step(k, prev, cur)

            chain.step = counted_step
            return chain

        monkeypatch.setattr(univariate, name, counted)
        return chains

    return patch
