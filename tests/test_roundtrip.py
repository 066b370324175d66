"""parse(render(v)) == v for symplectic and Weyl elements drawn by
hypothesis, and for the products that moyal and weyl_mul make of them."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from freepoisson.symplectic import SPoly, Weyl, moyal, weyl_mul  # noqa: E402
from freepoisson.syntax import parse_element, render  # noqa: E402

SCALARS = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def _terms(keys):
    return st.dictionaries(keys, SCALARS, max_size=4)


def _exponents(length):
    return st.tuples(*[st.integers(0, 4)] * length)


@st.composite
def pairs(draw):
    n = draw(st.integers(1, 2))
    f, g = (SPoly(n, draw(_terms(_exponents(2 * n)))) for _ in range(2))
    u, v = (Weyl(n, draw(_terms(st.tuples(_exponents(n), _exponents(n))))) for _ in range(2))
    return n, f, g, u, v


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(pairs())
def test_render_then_parse_is_the_identity(drawn):
    n, f, g, u, v = drawn
    for value, mode in [(f, "symplectic"), (moyal(f, g), "symplectic"), (u, "weyl"), (weyl_mul(u, v), "weyl")]:
        assert parse_element(render(value), n, mode) == value
