import random
from fractions import Fraction

import pytest

from freepoisson.env import Env, ham
from freepoisson.freelie import Lie
from freepoisson.poisson import Poly, p_bracket
from freepoisson.sampling import rand_env, rand_poly, rand_spoly, rand_weyl
from freepoisson.symplectic import SPoly, Weyl, rho_w, weyl_mul
from freepoisson.syntax import DomainError, ParseError, parse_element, render, to_json

X1 = Poly.generator(1)
X2 = Poly.generator(2)
X3 = Poly.generator(3)


def test_parse_poisson():
    assert parse_element("x1", 2, "poisson") == X1
    assert parse_element("x1*x2 + 3", 2, "poisson") == X1 * X2 + Poly.constant(3)
    assert parse_element("{x1, x2*x3}", 3, "poisson") == p_bracket(X1, X2 * X3)
    assert parse_element("[x1,x2]", 2, "poisson") == p_bracket(X1, X2)
    assert parse_element("x1^3 - 1/2", 2, "poisson") == X1 ** 3 - Poly.constant(
        Fraction(1, 2)
    )
    assert parse_element("-x1", 1, "poisson") == -X1
    assert parse_element("(x1+x2)^2", 2, "poisson") == (X1 + X2) ** 2


def test_parse_env():
    assert parse_element("h(x1)", 2, "env") == Env.h_generator(1)
    assert parse_element("x1*h(x2)", 2, "env") == Env({(2,): X1})
    assert parse_element("h({x1,x2})", 2, "env") == ham(p_bracket(X1, X2))
    assert parse_element("h(x1)*h(x2) - x1*h(x2)", 2, "env") == Env.h_generator(
        1
    ) * Env.h_generator(2) - Env({(2,): X1})
    assert parse_element("x1^2 + 2", 2, "env") == Env.from_poly(X1 * X1 + Poly.constant(2))


def test_parse_symplectic_and_weyl():
    sx, sy = SPoly.x(1, 1), SPoly.y(1, 1)
    assert parse_element("x1*y1 + 1/2", 1, "symplectic") == sx * sy + SPoly.constant(
        1, Fraction(1, 2)
    )
    assert parse_element("{x1,y1}", 1, "symplectic") == SPoly.one(1)
    wx, wy = Weyl.X(1, 1), Weyl.Y(1, 1)
    assert parse_element("x1*y1", 1, "weyl") == weyl_mul(wx, wy)
    assert parse_element("y1*x1", 1, "weyl") == weyl_mul(wy, wx)
    assert parse_element("x1*y1 - 3*x1", 1, "weyl") == weyl_mul(wx, wy) - 3 * wx


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_element("{x1,", 2, "poisson")
    with pytest.raises(ParseError):
        parse_element("", 2, "poisson")
    with pytest.raises(ParseError):
        parse_element("x1 +", 2, "poisson")
    with pytest.raises(ParseError):
        parse_element("2x1", 2, "poisson")  # juxtaposition is not multiplication
    with pytest.raises(ParseError):
        parse_element("1/0", 2, "poisson")
    with pytest.raises(ParseError):
        parse_element("y1", 2, "poisson")  # y-variables need symplectic or weyl mode
    with pytest.raises(ParseError):
        parse_element("h(x1)", 2, "poisson")
    with pytest.raises(ParseError):
        parse_element("h(x1)", 1, "symplectic")
    with pytest.raises(ParseError):
        parse_element("{x1,y1}", 1, "weyl")
    with pytest.raises(ParseError):
        parse_element("x", 2, "poisson")
    with pytest.raises(DomainError):
        parse_element("x5", 2, "poisson")
    with pytest.raises(DomainError):
        parse_element("y3", 2, "symplectic")
    with pytest.raises(ValueError):
        parse_element("x1", 2, "lie")


@pytest.mark.parametrize(
    "src, message",
    [
        ("x1^\u00b2", "unexpected character '\u00b2' (line 1, col 4)"),
        ("x\u00b2", "variable index expected after 'x' (line 1, col 1)"),
        ("\u00b2", "unexpected character '\u00b2' (line 1, col 1)"),
        ("x1\u00b2", "unexpected character '\u00b2' (line 1, col 3)"),
        ("x\u0661", "variable index expected after 'x' (line 1, col 1)"),
        ("x1 +\n  \u0661", "unexpected character '\u0661' (line 2, col 3)"),
    ],
)
def test_digits_are_ascii(src, message):
    # str.isdigit is true for superscripts and Arabic-Indic digits; only
    # 0-9 are digits of the grammar
    with pytest.raises(ParseError) as info:
        parse_element(src, 2, "poisson")
    assert str(info.value) == message


def test_render_known_strings():
    assert render(p_bracket(X1, X2 * X3)) == "[x1,x2]*x3 + x2*[x1,x3]"
    assert render(Poly.from_lie(Lie.basis_element((1, 1, 2)))) == "[x1,[x1,x2]]"
    assert render(-X1) == "-1*x1"
    assert render(Fraction(3, 2) * X1) == "3/2*x1"
    assert render(Poly.zero()) == "0"
    assert render(Env.zero()) == "0"
    assert render(ham(p_bracket(X1, X2))) == "-1*h(x2)*h(x1) + h(x1)*h(x2)"
    assert render(weyl_mul(Weyl.Y(1, 1), Weyl.X(1, 1))) == "x1*y1 - 1"
    sx, sy = SPoly.x(1, 1), SPoly.y(1, 1)
    assert render(sx * sy + SPoly.constant(1, Fraction(1, 2))) == "x1*y1 + 1/2"
    assert (
        render(rho_w(sx * sy))
        == "x1*y1 + 1/2*y1*h(x1) + 1/2*x1*h(y1) + 1/4*h(x1)*h(y1)"
    )


def test_round_trip_random():
    rng = random.Random(2025)
    for _ in range(80):
        n = rng.randint(1, 3)
        p = rand_poly(rng, n, 3)
        assert parse_element(render(p), n, "poisson") == p
        u = rand_env(rng, min(n, 2), 2, 2)
        assert parse_element(render(u), min(n, 2), "env") == u
        s = rand_spoly(rng, min(n, 2), 3)
        assert parse_element(render(s), min(n, 2), "symplectic") == s
        w = rand_weyl(rng, min(n, 2), 2)
        assert parse_element(render(w), min(n, 2), "weyl") == w


def test_to_json_shapes():
    got = to_json(X1 + Poly.constant(Fraction(1, 2)))
    assert got == {
        "terms": [
            {"coeff": "1", "pmono": [{"basis": "x1", "exp": 1}]},
            {"coeff": "1/2", "pmono": []},
        ]
    }
    got = to_json(Env({(2,): X1}))
    assert got == {
        "terms": [{"coeff": "1", "pmono": [{"basis": "x1", "exp": 1}], "hword": [2]}]
    }
    got = to_json(SPoly.x(1, 1))
    assert got == {"terms": [{"coeff": "1", "exponents": [1, 0]}]}
    got = to_json(weyl_mul(Weyl.Y(1, 1), Weyl.X(1, 1)))
    assert got == {
        "terms": [
            {"coeff": "1", "xexp": [1], "yexp": [1]},
            {"coeff": "-1", "xexp": [0], "yexp": [0]},
        ]
    }
    got = to_json(rho_w(SPoly.x(1, 1) * SPoly.y(1, 1)))
    assert got == {
        "terms": [
            {"coeff": "1", "exponents": [1, 1], "hindex": [0, 0]},
            {"coeff": "1/2", "exponents": [0, 1], "hindex": [1, 0]},
            {"coeff": "1/2", "exponents": [1, 0], "hindex": [0, 1]},
            {"coeff": "1/4", "exponents": [0, 0], "hindex": [1, 1]},
        ]
    }
    # the coefficient comes first in every term
    assert [list(t) for t in got["terms"]] == [["coeff", "exponents", "hindex"]] * 4
    assert list(to_json(Env({(2,): X1}))["terms"][0]) == ["coeff", "pmono", "hword"]


def test_values_without_forms_are_type_errors():
    for convert, verb in ((render, "render"), (to_json, "encode")):
        with pytest.raises(TypeError, match=f"cannot {verb} "):
            convert(Lie.generator(1))
