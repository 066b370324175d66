"""Correctness checks made apart from the code they check.

Each check returns None when the output passes and a one-line reason
when it does not.  None compares against a stored copy of earlier
output: every expected value is either built by construction, computed
here by an independent route, or a property the method must have.

- Enveloping elements are checked through the action of P^e on P, in
  which coefficients multiply and h(x_i) acts as {x_i, .}; `act` uses
  only the `poisson` layer, never the rewriting in `env`.
- Weyl elements are checked through their action on k[t_1..t_n], with
  X_i = d/dt_i and Y_i = multiplication by t_i, so that X_i Y_i - Y_i X_i = 1.
- Commutative polynomials in x_1..x_n (and the Moyal and symmetrization
  closed forms) use the small dict arithmetic below: exponent tuple ->
  Fraction.
"""

import itertools
import math
from fractions import Fraction

from freepoisson import depend, poisson, symplectic
from freepoisson.env import Env
from freepoisson.poisson import Poly

# --- commutative polynomials as {exponent tuple: Fraction} -------------


def cp_add(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + scale * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def cp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def cp_diff(a, i, k=1):
    """k-th partial derivative by the i-th variable (0-based)."""
    out = {}
    for e, c in a.items():
        if e[i] >= k:
            e2 = list(e)
            e2[i] -= k
            out[tuple(e2)] = c * math.perm(e[i], k)
    return out


def cp_to_poly(a):
    """Commutative polynomial in x_1..x_n as a free Poisson polynomial."""
    return Poly(
        {tuple(((i + 1,), k) for i, k in enumerate(e) if k): c for e, c in a.items()}
    )


def cp_bracket(f, g):
    """{f, g} for f, g in k[x1, x2]: (f_1 g_2 - f_2 g_1) [x1,x2]."""
    det = cp_add(cp_mul(cp_diff(f, 0), cp_diff(g, 1)), cp_mul(cp_diff(f, 1), cp_diff(g, 0)), -1)
    return Poly(
        {
            tuple(((i + 1,), k) for i, k in enumerate(e) if k) + (((1, 2), 1),): c
            for e, c in det.items()
        }
    )


# --- P^e acting on P ----------------------------------------------------


def act(u, m):
    """u . m for u in P^e and m in P, through `poisson` alone."""
    out = Poly.zero()
    for word, coeff in u.terms.items():
        v = m
        for j in reversed(word):
            v = poisson.p_bracket(Poly.generator(j), v)
        out = out + coeff * v
    return out


def _as_env(x):
    return x if isinstance(x, Env) else Env.from_poly(x)


def check_witness(witness, system, tests):
    """A dependence witness: not all zero, and sum u_r . (s_r . m) = 0."""
    if len(witness) != len(system):
        return "witness length differs from the system"
    if all(_as_env(u).is_zero() for u in witness):
        return "witness is all zero"
    for m in tests:
        total = Poly.zero()
        for u, s in zip(witness, system):
            total = total + act(_as_env(u), act(_as_env(s), m))
        if not total.is_zero():
            return "witness combination acts nonzero on a test polynomial"
    return None


def _right_divides(v, u):
    return len(v) <= len(u) and tuple(u[len(u) - len(v) :]) == tuple(v)


def check_independent(final_words, system, n, bounds=(1, 2)):
    """An independence verdict: incomparable final words, no small witness."""
    if final_words is None or len(final_words) != len(system):
        return "independent verdict without one final word per element"
    for a, b in itertools.combinations(final_words, 2):
        if _right_divides(a, b) or _right_divides(b, a):
            return "final words are comparable under right division"
    if depend.brute_force_dependence(system, *bounds, n=n) is not None:
        return f"oracle finds a witness at bounds {bounds}"
    return None


def check_pair(f, g, status, lam, mu, tests, dependent):
    """pair_status: free exactly when {f, g} != 0; lam*ham(f) = mu*ham(g)."""
    free = not poisson.p_bracket(f, g).is_zero()
    if status != ("free" if free else "dependent"):
        return f"status {status} but the bracket is {'non' if free else ''}zero"
    if dependent and status != "dependent":
        return "pair built inside k[a] is not dependent"
    if status == "dependent":
        if lam is None or (lam.is_zero() and mu.is_zero()):
            return "dependent pair without a relation"
        for m in tests:
            if lam * poisson.p_bracket(f, m) != mu * poisson.p_bracket(g, m):
                return "lam*ham(f) != mu*ham(g) on a test polynomial"
    return None


def mat_act(M, vec):
    """(M . v)_i = sum_j M_ij . v_j for a matrix over P^e and v in P^n."""
    return [
        sum((act(entry, v) for entry, v in zip(row, vec)), Poly.zero())
        for row in M.entries
    ]


def check_inverse(J, V, expected, tests):
    """V J = J V = I on test vectors of P^n, and V is the known inverse."""
    if V is None:
        return "no inverse returned"
    for vec in tests:
        if mat_act(V, mat_act(J, vec)) != vec:
            return "V.(J.v) != v on a test vector"
        if mat_act(J, mat_act(V, vec)) != vec:
            return "J.(V.v) != v on a test vector"
    if V.entries != expected.entries:
        return "inverse differs from the one known by construction"
    return None


# --- quantization -------------------------------------------------------


def weyl_apply(a, p):
    """Normal-ordered a = sum c X^alpha Y^beta acting on p in k[t]:
    X^alpha Y^beta p = d^alpha (t^beta p)."""
    out = {}
    for (alpha, beta), c in a.terms.items():
        q = cp_mul({beta: Fraction(1)}, p)
        for i, k in enumerate(alpha):
            q = cp_diff(q, i, k) if k else q
        out = cp_add(out, q, c)
    return out


def check_weyl_product(w, u, v, tests):
    """w acts on test polynomials as u after v."""
    for p in tests:
        if weyl_apply(w, p) != weyl_apply(u, weyl_apply(v, p)):
            return "Weyl product differs from composed action"
    return None


def symmetrize_closed(f):
    """W(x^a y^b) = prod_i sum_k (-1/2)^k k! C(a_i,k) C(b_i,k) X_i^(a_i-k) Y_i^(b_i-k)."""
    n = f.n
    out = {}
    for e, c in f.terms.items():
        per_index = []
        for i in range(n):
            a, b = e[i], e[n + i]
            per_index.append(
                [
                    (a - k, b - k, Fraction(-1, 2) ** k * math.factorial(k) * math.comb(a, k) * math.comb(b, k))
                    for k in range(min(a, b) + 1)
                ]
            )
        for choice in itertools.product(*per_index):
            key = (tuple(t[0] for t in choice), tuple(t[1] for t in choice))
            coeff = c * math.prod(t[2] for t in choice)
            s = out.get(key, 0) + coeff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return symplectic.Weyl(n, out)


def moyal_closed_n1(f, g):
    """moyal(f(x1), g(y1)) = sum_k f^(k) g^(k) / (2^k k!)."""
    fx = {(e[0],): c for e, c in f.terms.items()}
    gy = {(e[1],): c for e, c in g.terms.items()}
    out = {}
    k = 0
    while True:
        df, dg = cp_diff(fx, 0, k), cp_diff(gy, 0, k)
        if not df or not dg:
            break
        scale = Fraction(1, 2**k * math.factorial(k))
        for (a,), c1 in df.items():
            for (b,), c2 in dg.items():
                key = (a, b)
                out[key] = out.get(key, 0) + scale * c1 * c2
        k += 1
    return symplectic.SPoly(1, out)


def check_quantize(f, g, out, tests):
    """The outputs of one quantization chain on the pair (f, g)."""
    if out["theta_left"] != out["rho_w_f"]:
        return "rho_w(f) != theta_left(symmetrize(f))"
    if out["symmetrize_f"] != symmetrize_closed(f):
        return "symmetrize(f) differs from the closed form"
    if out["pn_env_mul"] != symplectic.rho_w(out["moyal"]):
        return "rho_w(f)*rho_w(g) != rho_w(moyal(f, g))"
    if out["pn_env_mul"].p_part() != out["moyal"]:
        return "polynomial part of rho_w(f)*rho_w(g) != moyal(f, g)"
    if f.n == 1 and all(e[1] == 0 for e in f.terms) and all(e[0] == 0 for e in g.terms):
        if out["moyal"] != moyal_closed_n1(f, g):
            return "moyal(f(x1), g(y1)) differs from the closed form"
    return check_weyl_product(out["weyl_mul"], out["symmetrize_f"], out["symmetrize_g"], tests)
