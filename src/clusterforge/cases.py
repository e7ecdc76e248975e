"""Named verification cases: reference identities as runnable check suites.

Each case returns {"name", "ok", "checks": [{"name", "ok", "detail"}]}; the
CLI maps these to pass/fail reports.  Everything here is exact, so a check
either holds structurally or fails with a witness.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cluster import builtin_seed, explore, quadric_relation_shape
from .laurent import LaurentPoly, product_of
from .nmatrix import (
    A2_W0_LETTERS,
    A3_W0_LETTERS,
    D4_W0_LETTERS,
    Word,
    generic_unitriangular,
    isotropy_defect,
    minor,
    product,
)
from .fields import QQ
from .prepmod import (
    D4_RIGID_WORD,
    QuiverRep,
    build_algebra_basis,
    build_complete_rigid,
    direct_sum,
    dynkin_quiver,
    exchange_matrix_from_sequences,
    functor_E,
    simple_rep,
    socle_series,
    zero_rep,
)
from .phi import phi_eval, verify_multiplication


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _finish(name: str, checks: list[dict]) -> dict:
    return {"name": name, "ok": all(c["ok"] for c in checks), "checks": checks}


def d4_nonrigid_module(c1: int = 1, c2: int = 1):
    """A member of the D_4 one-parameter family with socle series
    S3 / S1+S2+S4 / S3 (both scalars nonzero); these modules have
    self-extensions, so they are never rigid.

    The central space is 2-dimensional with basis (top, socle); each outer
    vertex maps the top vector out and feeds a multiple of the socle vector
    back, with the multiple at vertex 4 balancing the defining relation.
    """
    if c1 == 0 or c2 == 0:
        raise ValueError("family members need nonzero scalars")
    quiver = dynkin_quiver("D4")
    c4 = c1 + c2
    into3 = lambda c: ((0,), (QQ.coerce(c),))
    outof3 = ((1, 0),)
    maps = {
        "1->3": into3(c1),
        "3->1": outof3,
        "2->3": into3(c2),
        "3->2": outof3,
        "3->4": outof3,
        "4->3": into3(c4),
    }
    ordered = tuple(maps[a.name] for a in quiver.arrows)
    return QuiverRep(quiver, QQ, (1, 1, 2, 1), ordered)


def q4_submodules() -> list:
    """The eight submodules of Q_4 in type D_4 (zero and full included),
    realized by iterated top-removal from the injective."""
    alg = build_algebra_basis("D4")
    quiver = dynkin_quiver("D4")
    q4 = alg.injective(4)
    e4 = functor_E(q4, 4)
    e34 = functor_E(e4, 3)
    return [
        zero_rep(quiver),
        simple_rep(quiver, 4),
        functor_E(functor_E(e34, 1), 2),
        functor_E(e34, 1),
        functor_E(e34, 2),
        e34,
        e4,
        q4,
    ]


def d4_rigid_summands() -> dict:
    """Summands of the D4 flag complete rigid module in the row order
    (M7, M8, M4, M5, M6, Q4), plus the mutation partners M7*, M8*."""
    res = build_complete_rigid("D4", K=(1, 2, 3), letters=D4_RIGID_WORD)
    by_label = dict(zip(res["labels"], res["summands"]))
    q4 = by_label["Q4"]
    m7_star = functor_E(q4, 4)
    m8_star = functor_E(m7_star, 3)
    ordered = [by_label[l] for l in ("M7", "M8", "M4", "M5", "M6", "Q4")]
    return {
        "ordered": ordered,
        "labels": ("M7", "M8", "M4", "M5", "M6", "Q4"),
        "by_label": by_label,
        "M7*": m7_star,
        "M8*": m8_star,
        "build": res,
    }


def case_a2_thm61() -> dict:
    checks = []
    alg = build_algebra_basis("A2")
    quiver = dynkin_quiver("A2")
    s1, s2 = simple_rep(quiver, 1), simple_rep(quiver, 2)
    q1, q2 = alg.injective(1), alg.injective(2)
    x = product("A2", Word.with_default_params(A2_W0_LETTERS))
    expected = {
        "S1": x.entry(1, 2),
        "S2": x.entry(2, 3),
        "Q1": x.entry(1, 3),
        "Q2": minor(x, (1, 2), (2, 3)),
    }
    for name, rep in (("S1", s1), ("S2", s2), ("Q1", q1), ("Q2", q2)):
        value = phi_eval(rep, A2_W0_LETTERS).poly
        checks.append(
            _check(f"phi_{name} matches matrix data", value == expected[name], str(value))
        )
    report = verify_multiplication(s1, s2, A2_W0_LETTERS, middle_terms=(q1, q2))
    checks.append(_check("phi_S1 phi_S2 = phi_{S1+S2}", report["product_rule"]["holds"]))
    checks.append(
        _check("phi_S1 phi_S2 = phi_Q1 + phi_Q2", report["exchange_rule"]["holds"])
    )
    return _finish("a2-thm61", checks)


def case_a3_plucker() -> dict:
    checks = []
    alg = build_algebra_basis("A3")
    quiver = dynkin_quiver("A3")
    m = simple_rep(quiver, 2)
    q2 = alg.injective(2)
    n = functor_E(q2, 2)
    y = functor_E(n, 3)
    z = functor_E(n, 1)
    report = verify_multiplication(m, n, A3_W0_LETTERS, middle_terms=(q2, direct_sum(y, z)))
    checks.append(_check("phi_M phi_N = phi_{M+N}", report["product_rule"]["holds"]))
    checks.append(
        _check(
            "phi_M phi_N = phi_Q2 + phi_{Y+Z}",
            report["exchange_rule"]["holds"],
            str(report["exchange_rule"]["witness"]),
        )
    )
    g = generic_unitriangular(4)
    lhs = minor(g, (1, 2), (1, 3)) * minor(g, (1, 2), (2, 4))
    rhs = minor(g, (1, 2), (1, 2)) * minor(g, (1, 2), (3, 4)) + minor(
        g, (1, 2), (1, 4)
    ) * minor(g, (1, 2), (2, 3))
    checks.append(_check("generic Plucker relation [13][24]=[12][34]+[14][23]", lhs == rhs))
    x = product("A3", Word.with_default_params(A3_W0_LETTERS))
    submodules = [zero_rep(quiver), simple_rep(quiver, 2), y, z, n, q2]
    values = [phi_eval(s, A3_W0_LETTERS).poly for s in submodules]
    pairs = list(itertools.combinations((1, 2, 3, 4), 2))
    minors = {c: minor(x, (1, 2), c) for c in pairs}
    hits = [tuple(c for c, mv in minors.items() if mv == v) for v in values]
    checks.append(
        _check(
            "each Q2-submodule matches exactly one rows-(1,2) minor",
            all(len(h) == 1 for h in hits),
            str(hits),
        )
    )
    checks.append(
        _check("distinct submodules give distinct minors", len(set(hits)) == len(hits))
    )
    return _finish("a3-plucker", checks)


def case_d4_exercise55() -> dict:
    checks = []
    x = product("D4", Word.with_default_params(D4_W0_LETTERS))
    checks.append(_check("12-factor product is unitriangular", x.is_unitriangular()))
    row = x.row(1)
    at_one = [p.evaluate({v: 1 for v in p.varnames}) for p in row]
    checks.append(
        _check(
            "first row at t=1 counts monomials (1,3,6,4,4,6,7,1)",
            at_one == [Fraction(c) for c in (1, 3, 6, 4, 4, 6, 7, 1)],
            str(at_one),
        )
    )
    values = [phi_eval(s, D4_W0_LETTERS).poly for s in q4_submodules()]
    for j, entry in enumerate(row, start=1):
        matches = [i for i, v in enumerate(values) if v == entry]
        checks.append(
            _check(
                f"first-row entry n_1{j} equals exactly one phi over Q4 submodules",
                len(matches) == 1,
                f"submodule index {matches}",
            )
        )
    defect = isotropy_defect(row)
    checks.append(_check("first row lies on the isotropic cone", defect.is_zero))
    return _finish("d4-exercise55", checks)


# Exchange-sequence data for the D_4 flag rigid module, over the summand
# order (M7, M8, M4, M5, M6, Q4): for each mutable direction, the middle
# term of the sequence starting at the summand (X) and ending at it (Y).
D4_SEQUENCES = (
    {"X": (0, 0, 0, 1, 0, 0), "Y": (0, 0, 0, 0, 0, 1)},
    {"X": (0, 0, 1, 0, 1, 0), "Y": (0, 0, 0, 1, 0, 0)},
)

D4_BT_ROWS = ((0, 0), (0, 0), (0, -1), (-1, 1), (0, -1), (1, 0))


def case_d4_example152() -> dict:
    checks = []
    data = d4_rigid_summands()
    res = data["build"]
    checks.append(
        _check(
            "construction yields 6 summands, positions 9..12 vanish",
            res["dim_NK"] == 6 and res["zero_positions"] == [9, 10, 11, 12],
            f"labels {res['labels']}",
        )
    )
    expected_series = {
        "M7": ((0, 0, 0, 1),),
        "M8": ((0, 0, 0, 1), (0, 0, 1, 0)),
        "M4": ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)),
        "M5": ((0, 0, 0, 2), (0, 0, 1, 0), (1, 1, 0, 0), (0, 0, 1, 0)),
        "M6": ((0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0)),
        "Q4": ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    }
    for label, series in expected_series.items():
        got = socle_series(data["by_label"][label])
        checks.append(_check(f"{label} socle filtration", got == series, str(got)))
    out = exchange_matrix_from_sequences(data["ordered"], 4, list(D4_SEQUENCES), coeff_vertices=(4,))
    checks.append(
        _check("B(T) matches the printed matrix", out["matrix"].rows == D4_BT_ROWS, str(out["matrix"].rows))
    )
    checks.append(
        _check(
            "coefficient row extension is [1, 0]",
            out["extended_rows"] == {4: (1, 0)},
            str(out["extended_rows"]),
        )
    )
    x = product("D4", Word.with_default_params(D4_W0_LETTERS))
    word = D4_W0_LETTERS
    by_label = data["by_label"]
    minor_checks = [
        ("M4", x.entry(1, 4)),
        ("M6", x.entry(1, 5)),
        ("M7", x.entry(1, 2)),
        ("M8", x.entry(1, 3)),
        ("Q4", x.entry(1, 8)),
    ]
    for label, expected in minor_checks:
        got = phi_eval(by_label[label], word).poly
        checks.append(_check(f"phi_{label} equals its matrix entry", got == expected))
    m5_minor = minor(x, (1, 7), (7, 8))
    checks.append(
        _check(
            "phi_M5 equals the 2x2 minor on rows (1,7), cols (7,8)",
            phi_eval(by_label["M5"], word).poly == m5_minor,
        )
    )
    # the exchange relations of the built-in d4_flag seed hold as polynomial
    # identities among the phi functions
    first = verify_multiplication(
        by_label["M7"], data["M7*"], word, middle_terms=(by_label["M5"], by_label["Q4"])
    )
    checks.append(
        _check(
            "phi_M7 phi_M7* = phi_M5 + phi_Q4",
            first["exchange_rule"]["holds"],
            str(first["exchange_rule"]["witness"]),
        )
    )
    second = verify_multiplication(
        by_label["M8"],
        data["M8*"],
        word,
        middle_terms=(direct_sum(by_label["M4"], by_label["M6"]), by_label["M5"]),
    )
    checks.append(
        _check(
            "phi_M8 phi_M8* = phi_{M4+M6} + phi_M5",
            second["exchange_rule"]["holds"],
            str(second["exchange_rule"]["witness"]),
        )
    )
    return _finish("d4-example152", checks)


def case_quadric(n: int = 4) -> dict:
    checks = []
    seed = builtin_seed("quadric", n=n)
    mc = explore(seed)
    checks.append(_check("exploration exhausts", mc.exhausted))
    checks.append(
        _check(
            f"2^(n-2) = {2 ** (n - 2)} clusters",
            mc.cluster_count == 2 ** (n - 2),
            str(mc.cluster_count),
        )
    )
    checks.append(
        _check(
            f"2(n-2) = {2 * (n - 2)} mutable variables",
            len(mc.variables()) == 2 * (n - 2),
            str(len(mc.variables())),
        )
    )
    varnames = seed.varnames
    shapes_ok = True
    exchange_ok = True
    for key in mc.order:
        s = mc.seeds[key]
        for j in range(1, s.matrix.n_mutable + 1):
            pair_k = j + 1
            shape_a, shape_b = quadric_relation_shape(n, pair_k)
            expected = product_of(
                (LaurentPoly.variable(v, varnames) for v in shape_a), varnames
            ) + product_of((LaurentPoly.variable(v, varnames) for v in shape_b), varnames)
            binomial = s.exchange_binomial(j)
            if binomial != expected:
                shapes_ok = False
            neighbor = mc.seeds[mc.graph[key][j]]
            old = s.cluster[j - 1]
            new = None
            for cand in neighbor.cluster:
                if old * cand == binomial:
                    new = cand
                    break
            if new is None:
                exchange_ok = False
    checks.append(
        _check("every exchange matches one of the three displayed relation shapes", shapes_ok)
    )
    checks.append(_check("old * new variable equals the exchange binomial", exchange_ok))
    return _finish(f"quadric-{n}", checks)


CASES = {
    "a2-thm61": case_a2_thm61,
    "a3-plucker": case_a3_plucker,
    "d4-exercise55": case_d4_exercise55,
    "d4-example152": case_d4_example152,
    "quadric": case_quadric,
}


def run_case(name: str, **kwargs) -> dict:
    if name not in CASES:
        raise KeyError(f"unknown case {name!r}; known: {sorted(CASES)}")
    return CASES[name](**kwargs)


def paper_golden_suite() -> list[dict]:
    """Every registered verification case at its default parameters."""
    out = [
        case_a2_thm61(),
        case_a3_plucker(),
        case_d4_exercise55(),
        case_d4_example152(),
    ]
    for n in (4, 5):
        out.append(case_quadric(n))
    return out
