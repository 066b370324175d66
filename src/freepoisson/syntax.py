"""Surface syntax: tokenizer, parser, evaluation, and rendering.

Grammar (whitespace insignificant, "^" binds tighter than "*",
juxtaposition is not multiplication):

    expr     := term (("+"|"-") term)*
    term     := factor ("*" factor)*
    factor   := base ("^" nat)?
    base     := rational | var | "(" expr ")" | "{" expr "," expr "}"
              | "[" expr "," expr "]" | "h" "(" expr ")"
    var      := ("x"|"y") nat
    rational := "-"? nat ("/" nat)?
    nat      := [0-9]+          (ASCII digits only: "x²" is an error)

"[a,b]" is accepted as a synonym for the bracket "{a,b}" so that
rendered basis elements such as "[x1,[x1,x2]]" parse back to themselves.
h(...) is legal only in env mode; y-variables only in symplectic and
weyl modes.  Parentheses, brackets, h(...) and unary minus nest at most
MAX_DEPTH levels deep.  An exponent above MAX_EXPONENT, and a number
in or out with more digits than Python converts, raise BudgetError (a
variable index that long, DomainError).  Rendering is deterministic and
parseable: every value satisfies parse(render(v)) = v in its own mode.
"""

import re
import sys
from fractions import Fraction

from . import env, freelie, poisson, symplectic
from .core import BudgetError, graded_lex_key, mi_norm
from .poisson import Poly


MAX_DEPTH = 100
MAX_EXPONENT = 1000


class ParseError(Exception):
    def __init__(self, message, line=1, col=1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class DomainError(Exception):
    pass


def _linecol(src, pos):
    line = src.count("\n", 0, pos) + 1
    last = src.rfind("\n", 0, pos)
    return line, pos - last


# after whitespace: a nat, a variable letter and its index, an operator, h or an error
_TOKEN = re.compile(r"\s*((?P<num>[0-9]+)|(?P<var>[xy])(?P<idx>[0-9]*)|[h+\-*/^(){}\[\],]|(?P<bad>\S))")


def _nat(digits, error, what, src, i):
    try:
        return int(digits)
    except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
        limit, (line, col) = sys.get_int_max_str_digits(), _linecol(src, i)
        raise error(f"{what} of {len(digits)} digits is above the limit of {limit} (line {line}, col {col})") from None


def tokenize(src):
    tokens = []
    for m in _TOKEN.finditer(src):
        i, text = m.start(1), m[1]
        if m["num"]:
            tokens.append(("num", _nat(text, BudgetError, "number", src, i), i))
        elif m["var"] and m["idx"]:
            tokens.append(("var", (m["var"], _nat(m["idx"], DomainError, f"variable index {m['var']}", src, i)), i))
        elif m["var"]:
            raise ParseError(f"variable index expected after {text!r}", *_linecol(src, i))
        elif m["bad"]:
            raise ParseError(f"unexpected character {text!r}", *_linecol(src, i))
        else:
            tokens.append((text, None, i))
    tokens.append(("eof", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, src, n, mode):
        if mode not in ("poisson", "env", "symplectic", "weyl"):
            raise ValueError(f"unknown mode {mode!r}")
        self.src = src
        self.n = n
        self.mode = mode
        self.tokens = tokenize(src)
        self.pos = 0
        self.depth = 0

    def _error(self, message, tok=None):
        tok = tok or self.tokens[self.pos]
        line, col = _linecol(self.src, tok[2])
        raise ParseError(message, line, col)

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        if self.peek() != kind:
            self._error(f"expected {what}")
        return self.next()

    def parse(self):
        node = self.expr()
        if self.peek() != "eof":
            self._error("unexpected trailing input")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.next()
            node = ("*", node, self.factor())
        return node

    def factor(self):
        node = self.base()
        if self.peek() == "^":
            self.next()
            tok = self.expect("num", "an exponent")
            if tok[1] > MAX_EXPONENT:
                raise BudgetError(f"exponent {tok[1]} is above the limit of {MAX_EXPONENT}")
            node = ("^", node, tok[1])
        return node

    def _rational(self, sign):
        tok = self.expect("num", "a number")
        num = sign * tok[1]
        if self.peek() == "/":
            self.next()
            tok = self.expect("num", "a denominator")
            if tok[1] == 0:
                self._error("zero denominator", tok)
            return Fraction(num, tok[1])
        return Fraction(num)

    def base(self):
        if self.depth > MAX_DEPTH:
            self._error(f"expression nested more than {MAX_DEPTH} levels deep")
        self.depth += 1
        node = self._base()
        self.depth -= 1
        return node

    def _base(self):
        kind = self.peek()
        if kind == "num":
            return ("num", self._rational(1))
        if kind == "-":
            self.next()
            return ("*", ("num", Fraction(-1)), self.factor())
        if kind == "var":
            tok = self.next()
            letter, idx = tok[1]
            if letter == "y" and self.mode in ("poisson", "env"):
                self._error(f"y-variables are not allowed in {self.mode} mode", tok)
            if not 1 <= idx <= self.n:
                raise DomainError(f"variable index {letter}{idx} exceeds n={self.n}")
            return ("var", letter, idx)
        if kind == "h":
            tok = self.next()
            if self.mode != "env":
                self._error("h(...) is only allowed in env mode", tok)
            self.expect("(", "'('")
            inner = self.expr()
            self.expect(")", "')'")
            return ("h", inner)
        if kind == "(":
            self.next()
            inner = self.expr()
            self.expect(")", "')'")
            return inner
        if kind in ("{", "["):
            if self.mode == "weyl":
                self._error("brackets are not available in weyl mode")
            close = "}" if kind == "{" else "]"
            self.next()
            a = self.expr()
            self.expect(",", "','")
            b = self.expr()
            self.expect(close, f"'{close}'")
            return ("bracket", a, b)
        self._error("expected a value")

    def evaluate(self, node):
        mode = self.mode
        op = node[0]
        if op == "num":
            return self._const(node[1])
        if op == "var":
            return self._var(node[1], node[2])
        if op in ("+", "-", "*"):
            # a chain of sums or products nests to the left; walk it
            # without recursion so that its length is not limited
            spine = []
            while node[0] in ("+", "-", "*"):
                spine.append(node)
                node = node[1]
            out = self.evaluate(node)
            for op, _, right in reversed(spine):
                b = self.evaluate(right)
                out = out + b if op == "+" else out - b if op == "-" else out * b
            return out
        if op == "^":
            return self.evaluate(node[1]) ** node[2]
        if op == "bracket":
            a, b = self.evaluate(node[1]), self.evaluate(node[2])
            if mode == "poisson":
                return poisson.p_bracket(a, b)
            if mode == "symplectic":
                return symplectic.sp_bracket(a, b)
            if mode == "env":
                pa, ra = a.split()
                pb, rb = b.split()
                if not ra.is_zero() or not rb.is_zero():
                    raise DomainError("bracket arguments must be polynomial")
                return env.Env.from_poly(poisson.p_bracket(pa, pb))
            raise AssertionError(f"bracket in {mode} mode")
        if op == "h":
            inner = self.evaluate(node[1])
            p, rest = inner.split()
            if not rest.is_zero():
                raise DomainError("h argument must be polynomial")
            return env.ham(p)

    def _const(self, c):
        if self.mode == "poisson":
            return Poly.constant(c)
        if self.mode == "env":
            return env.Env.from_poly(Poly.constant(c))
        if self.mode == "symplectic":
            return symplectic.SPoly.constant(self.n, c)
        return symplectic.Weyl(self.n, {((0,) * self.n, (0,) * self.n): c})

    def _var(self, letter, idx):
        if self.mode == "poisson":
            return Poly.generator(idx)
        if self.mode == "env":
            return env.Env.from_poly(Poly.generator(idx))
        if self.mode == "symplectic":
            return symplectic.SPoly.x(self.n, idx) if letter == "x" else symplectic.SPoly.y(self.n, idx)
        return symplectic.Weyl.X(self.n, idx) if letter == "x" else symplectic.Weyl.Y(self.n, idx)


def parse(src, n, mode):
    """Source to AST; raises ParseError / DomainError per the contract."""
    return _Parser(src, n, mode).parse()


def parse_element(src, n, mode):
    """Source to value in the algebra selected by the mode."""
    p = _Parser(src, n, mode)
    return p.evaluate(p.parse())


# --- rendering ---------------------------------------------------------


def format_scalar(c):
    try:
        return str(Fraction(c))
    except ValueError:  # str() refuses more than sys.get_int_max_str_digits() digits
        raise BudgetError(f"a coefficient has more than {sys.get_int_max_str_digits()} digits") from None


def render_word(w):
    if len(w) == 1:
        return f"x{w[0]}"
    u, v = freelie.standard_factorization(w)
    return f"[{render_word(u)},{render_word(v)}]"


def _mono_factors(m):
    facs = []
    for w, e in sorted(m, key=lambda t: tuple(reversed(t[0]))):
        base = render_word(w)
        facs.append(f"{base}^{e}" if e > 1 else base)
    return facs


def _sp_factors(e, form="{}"):
    """Factors of an exponent vector over x1..xn, y1..yn, each name put in form."""
    n = len(e) // 2
    facs = []
    for k, exp in enumerate(e):
        if not exp:
            continue
        name = form.format(f"x{k + 1}" if k < n else f"y{k - n + 1}")
        facs.append(f"{name}^{exp}" if exp > 1 else name)
    return facs


def _pmono(m):
    return [{"basis": render_word(w), "exp": e} for w, e in m]


# --- display walks: (key, coefficient) in display order ------------------


def _poly_walk(p):
    for m in sorted(p.terms, key=lambda m: (-poisson.mono_deg(m), poisson.mono_key(m))):
        yield m, p.terms[m]


def _env_walk(u):
    for w in sorted(u.terms, key=graded_lex_key, reverse=True):
        for m, c in _poly_walk(u.terms[w]):
            yield (m, w), c


def _sp_walk(f):
    for e in sorted(f.terms, key=lambda e: (-sum(e), e)):
        yield e, f.terms[e]


def _weyl_walk(a):
    for k in sorted(a.terms, key=lambda k: (-sum(k[0]) - sum(k[1]), k)):
        yield k, a.terms[k]


def _pnenv_walk(u):
    for g in sorted(u.terms, key=lambda g: (mi_norm(g), tuple(-v for v in g))):
        for e, c in _sp_walk(u.terms[g]):
            yield (e, g), c


def _join_terms(items):
    """items: list of (coefficient, factor list) in display order."""
    if not items:
        return "0"
    parts = []
    for idx, (c, facs) in enumerate(items):
        mag = abs(c)
        body = "*".join(facs)
        if not facs:
            piece = format_scalar(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{format_scalar(mag)}*{body}"
        if idx == 0:
            if c < 0:
                piece = f"-{format_scalar(mag)}*{body}" if facs else f"-{format_scalar(mag)}"
            parts.append(piece)
        else:
            parts.append(f"{' - ' if c < 0 else ' + '}{piece}")
    return "".join(parts)


def render(value):
    walk, factors, _ = _forms(value, "render")
    return _join_terms([(c, factors(key)) for key, c in walk(value)])


def to_json(value):
    walk, _, fields = _forms(value, "encode")
    return {"terms": [{"coeff": format_scalar(c), **fields(key)} for key, c in walk(value)]}


# (walk, text factors of a key, JSON fields of a key) by the qualified name
# of the value's type: picking them needs no class object, so it executes
# no module the value is not from
_FORMS = {
    f"{__package__}.poisson.Poly": (_poly_walk, _mono_factors, lambda m: {"pmono": _pmono(m)}),
    f"{__package__}.env.Env": (
        _env_walk,
        lambda k: _mono_factors(k[0]) + [f"h(x{j})" for j in k[1]],
        lambda k: {"pmono": _pmono(k[0]), "hword": list(k[1])},
    ),
    f"{__package__}.symplectic.SPoly": (_sp_walk, _sp_factors, lambda e: {"exponents": list(e)}),
    f"{__package__}.symplectic.Weyl": (
        _weyl_walk,
        lambda k: _sp_factors(k[0] + k[1]),
        lambda k: {"xexp": list(k[0]), "yexp": list(k[1])},
    ),
    f"{__package__}.symplectic.PnEnv": (
        _pnenv_walk,
        lambda k: _sp_factors(k[0]) + _sp_factors(k[1], "h({})"),
        lambda k: {"exponents": list(k[0]), "hindex": list(k[1])},
    ),
}


def _forms(value, verb):
    cls = type(value)
    forms = _FORMS.get(f"{cls.__module__}.{cls.__qualname__}")
    if forms is None:
        raise TypeError(f"cannot {verb} {value!r}")
    return forms
