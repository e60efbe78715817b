"""Sampled invariant suites behind the CLI selftest command.

Each check draws reproducible random instances from a seed, exercises one
family of algebraic laws, and yields whether each case held, with every law
of every case evaluated.  The report gives each check's case count and pass
flag and names the first failing case.  The rewrite-identity pair generator
is also used by the acceptance test suite with larger sample sizes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from random import Random

from .cellcomplex import (Cell, ComplexDesc, Moore, NormComp, Repar, Step,
                          np_to_expr, validate)
from .errors import BadInputError
from .mooreflow import chain_complex
from .reedy import (APath, CellPath, is_simplified, make_elem, make_obj,
                    normalize_elem)
from .reparam import compose, decompose, identity, inverse, mu, split, tensor
from .sampling import (rand_composable_unit_paths, rand_fraction,
                       rand_nonidentity_pl, rand_normal_path, rand_partition,
                       rand_pl)

IDENTITY_KINDS = (
    "block_absorb",
    "rescale",
    "normcomp_expand",
    "normcomp_repar",
    "chain_to_normcomp",
    "variable_length",
)


def _scaled(expr, length):
    return Repar(expr, mu(length))


def _dyadic(n):
    """Block targets of the left-nested normalized concatenation: the first
    two blocks have length 2^-(n-1), then lengths double up to 1/2."""
    if n == 1:
        return [Fraction(1)]
    out = [Fraction(1, 2 ** (n - 1)), Fraction(1, 2 ** (n - 1))]
    out.extend(Fraction(1, 2 ** (n - i + 1)) for i in range(3, n + 1))
    return out


def identity_pair(rng: Random, cx, spine, kind):
    """Two expressions equal by one of the concatenation laws."""
    if kind == "block_absorb":
        n = rng.randrange(1, 5)
        gammas = rand_composable_unit_paths(rng, cx, spine, n)
        src_lens = rand_partition(rng, rng.choice([1, 2]), n)
        dst_lens = rand_partition(rng, rng.choice([1, Fraction(1, 2)]), n)
        phis = [rand_pl(rng, a, b) for a, b in zip(src_lens, dst_lens)]
        chain = reduce(Moore, [_scaled(g, ell)
                               for g, ell in zip(gammas, dst_lens)])
        lhs = Repar(chain, tensor(*phis))
        rhs = reduce(Moore, [Repar(_scaled(g, ell), phi)
                             for g, ell, phi in zip(gammas, dst_lens, phis)])
        return lhs, rhs
    if kind == "rescale":
        n = rng.randrange(1, 5)
        gammas = rand_composable_unit_paths(rng, cx, spine, n)
        lens = rand_partition(rng, 1, n)
        ell = rng.choice([Fraction(1, 2), Fraction(2), Fraction(3, 4)])
        chain = reduce(Moore, [_scaled(g, l) for g, l in zip(gammas, lens)])
        lhs = Repar(chain, mu(ell))
        rhs = reduce(Moore, [_scaled(g, l * ell)
                             for g, l in zip(gammas, lens)])
        return lhs, rhs
    if kind == "normcomp_expand":
        n = rng.randrange(2, 7)
        gammas = rand_composable_unit_paths(rng, cx, spine, n)
        lhs = reduce(NormComp, gammas)
        rhs = reduce(Moore, [_scaled(g, d)
                             for g, d in zip(gammas, _dyadic(n))])
        return lhs, rhs
    if kind == "normcomp_repar":
        n = rng.randrange(2, 7)
        gammas = rand_composable_unit_paths(rng, cx, spine, n)
        phi = rand_pl(rng, 1, 1)
        dyadic = _dyadic(n)
        phis = split(phi, dyadic)
        lhs = Repar(reduce(NormComp, gammas), phi)
        rhs = reduce(Moore, [Repar(_scaled(g, d), p)
                             for g, d, p in zip(gammas, dyadic, phis)])
        return lhs, rhs
    if kind == "chain_to_normcomp":
        n = rng.randrange(2, 7)
        gammas = rand_composable_unit_paths(rng, cx, spine, n)
        lens = rand_partition(rng, 1, n)
        dyadic = _dyadic(n)
        phis = [rand_pl(rng, d, l) for d, l in zip(dyadic, lens)]
        chain = reduce(Moore, [_scaled(g, l) for g, l in zip(gammas, lens)])
        lhs = Repar(chain, tensor(*phis))
        rhs = reduce(NormComp, [
            Repar(g, compose(compose(inverse(mu(d)), p), mu(l)))
            for g, d, l, p in zip(gammas, dyadic, lens, phis)])
        return lhs, rhs
    if kind == "variable_length":
        gammas = rand_composable_unit_paths(rng, cx, spine, 2)
        l1, l2 = rand_partition(rng, rng.choice([1, 2, Fraction(3, 2)]), 2)
        total = l1 + l2
        chain = Moore(_scaled(gammas[0], l1), _scaled(gammas[1], l2))
        lhs = Repar(chain, inverse(mu(total)))
        psi1, psi2 = decompose(inverse(mu(total)), [l1 / total, l2 / total])
        rhs = Moore(Repar(_scaled(gammas[0], l1), psi1),
                    Repar(_scaled(gammas[1], l2), psi2))
        return lhs, rhs
    raise ValueError(f"unknown identity kind {kind!r}")


# ---------------------------------------------------------------------------
# sampled suites


def check_reparam_laws(rng: Random, cases: int):
    for _ in range(cases):
        phi = rand_pl(rng, 1, rng.choice([1, 2, Fraction(1, 2)]))
        psi = rand_pl(rng, phi.dst_len, 1)
        chi = rand_pl(rng, 1, Fraction(3, 2))
        laws = [compose(phi, inverse(phi)) == identity(phi.src_len),
                (compose(compose(phi, psi), chi)
                 == compose(phi, compose(psi, chi)))]
        lens = rand_partition(rng, phi.src_len, rng.randrange(1, 4))
        yield all(laws + [tensor(*decompose(phi, lens)) == phi])


def check_identity_pairs(rng: Random, cases: int):
    cx = chain_complex(6)
    spine = [f"g{i}" for i in range(1, 7)]
    for i in range(cases):
        kind = IDENTITY_KINDS[i % len(IDENTITY_KINDS)]
        lhs, rhs = identity_pair(rng, cx, spine, kind)
        yield cx.normalize(lhs) == cx.normalize(rhs)


def check_rigidity(rng: Random, cases: int):
    cx = chain_complex(4)
    spine = [f"g{i}" for i in range(1, 5)]
    for _ in range(cases):
        hops = sorted(rng.sample(range(5), 2))
        carrier = tuple(spine[hops[0]:hops[1]])
        np = rand_normal_path(rng, cx, carrier, total=1)
        phi = rand_nonidentity_pl(rng)
        yield cx.normalize(Repar(np_to_expr(np), phi)) != np


def check_elem_normalization(rng: Random, cases: int):
    base = validate(ComplexDesc(("0", "1"), (
        Cell("e", 0, "0", "1"),
        Cell("l", 0, "1", "1"),
        Cell("f", 0, "1", "0"),
    )))
    cell = Cell("g", 1, "1", "1",
                boundary_minus=Step("l", (), identity(1)),
                boundary_plus=Step("l", (), identity(1)))
    for _ in range(cases):
        n = rng.randrange(1, 5)
        triples = []
        entries = []
        for _ in range(n):
            if rng.random() < 0.5:
                triples.append(("1", 1, "1"))
                z = (rng.choice([rand_fraction(rng, -1, 1),
                                 Fraction(-1), Fraction(1)]),)
                entries.append(CellPath(z, rand_pl(rng, 1, 1)))
            else:
                triples.append(("1", 0, "1"))
                entries.append(APath(rand_normal_path(rng, base, ("l",))))
        elem = make_elem(make_obj("1", "1", triples), entries, base)
        nf = normalize_elem(elem, base, cell)
        yield all([is_simplified(nf, base, cell),
                   normalize_elem(nf, base, cell) == nf])


SUITES = (("reparam_laws", check_reparam_laws, 100),
          ("normal_form_pairs", check_identity_pairs, 60),
          ("rigidity", check_rigidity, 40),
          ("elem_normalization", check_elem_normalization, 30))


def selftest_report(seed: int, scale: int = 1) -> dict:
    """Every case of every suite, the k-th suite drawing from seed + k.
    On failure, ``first_failure`` names the first failing suite, its seed
    and the index of its first failing case, which rerunning the suite on
    ``Random(seed)`` replays.  ``scale`` must be at least 1."""
    if scale < 1:
        raise BadInputError(f"selftest scale must be >= 1, got {scale}")
    report = {"seed": seed, "checks": [], "ok": True}
    for k, (name, check, cases) in enumerate(SUITES):
        held = list(check(Random(seed + k), cases * scale))
        report["checks"].append(
            {"name": name, "cases": cases * scale, "ok": all(held)})
        if not all(held) and report["ok"]:
            report["ok"] = False
            report["first_failure"] = {"check": name, "seed": seed + k,
                                       "index": held.index(False)}
    return report
