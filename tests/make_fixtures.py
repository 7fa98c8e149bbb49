"""Regenerate the structure-file fixtures in tests/fixtures.

Run from the repository root:  python3 tests/make_fixtures.py

Every fixture is written in canonical form (dumped through the same
serializer the CLI uses) so golden-file comparisons are byte-exact.
"""

import json
import pathlib
from fractions import Fraction

HERE = pathlib.Path(__file__).parent
FIX = HERE / "fixtures"


def dump(name: str, doc: dict) -> None:
    FIX.mkdir(exist_ok=True)
    (FIX / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def header(max_len=6, cutoff=("rat", "3"), monoid="rat", variant="nov"):
    return {
        "level_monoid": monoid,
        "coefficients": variant,
        "window": {"max_len": max_len, "cutoff": {cutoff[0]: cutoff[1]}},
    }


ZERO_LVL = {"rat": "0"}
ONE = "1*T^{0}*e^{0}"


def gen(gid, src, dst, sdeg, base=ZERO_LVL):
    return {"id": gid, "src": src, "dst": dst, "sdeg": sdeg, "base_level": base}


# Polynomials in T with one power of e: {energy: coefficient} as Fractions.


def _poly(raw: dict) -> dict:
    return {Fraction(e): Fraction(c) for e, c in raw.items()}


def _poly_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _poly_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for ex, cx in x.items():
        out = _poly_add(out, {ex + ey: cx * cy for ey, cy in y.items()})
    return out


def _poly_text(x: dict, expo: int = 0) -> str:
    """Canonical monomial syntax, sorted by energy."""
    frac = lambda q: str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return "+".join(f"{frac(c)}*T^{{{frac(e)}}}*e^{{{expo}}}" for e, c in sorted(x.items()))


def main() -> None:
    # b1-only complex: p -> q -> 0, with a functor, coderivations, elements.
    b1 = header()
    b1["quivers"] = [
        {
            "name": "A",
            "objects": ["X"],
            "generators": [gen("p", "X", "X", 0), gen("q", "X", "X", 1)],
        }
    ]
    b1["b_components"] = [
        {"quiver": "A", "components": [{"word": ["p"], "value": [["q", ONE]]}]}
    ]
    b1["functors"] = [
        {
            "name": "idA",
            "src": "A",
            "dst": "A",
            "obj_map": {"X": "X"},
            "convergence_bound": 16,
            "components": [
                {"word": ["p"], "value": [["p", ONE]]},
                {"word": ["q"], "value": [["q", ONE]]},
            ],
        },
        {
            "name": "fbad",
            "src": "A",
            "dst": "A",
            "obj_map": {"X": "X"},
            "convergence_bound": 16,
            "components": [{"word": ["p"], "value": [["p", ONE]]}],
        },
    ]
    b1["coderivations"] = [
        {
            "name": "r",
            "from": "idA",
            "to": "idA",
            "degree": 1,
            "level": ZERO_LVL,
            "components": [{"word": ["p"], "value": [["q", ONE]]}],
        }
    ]
    b1["elements"] = [
        {"name": "a1", "quiver": "A", "terms": [{"word": ["p", "p"], "coeff": ONE}]}
    ]
    b1["coder_quiver"] = {
        "source": "A",
        "target": "A",
        "functors": ["idA"],
        "coderivations": ["r"],
    }
    b1["tasks"] = {
        "check_functor": {"functor": "idA"},
        "compose": {"f": "idA", "g": "idA"},
        "push": {"r": "r", "h": "idA"},
        "pull": {"e": "idA", "r": "r"},
        "eval": {"element": "a1", "chain": ["r"]},
    }
    dump("b1_only.json", b1)

    # Curved minimal category: one loop c of sdeg 1, curvature T^1 c.
    curved = header()
    curved["quivers"] = [
        {"name": "A", "objects": ["X"], "generators": [gen("c", "X", "X", 1)]}
    ]
    curved["b_components"] = [
        {"quiver": "A", "components": [{"at": "X", "value": [["c", "1*T^{1}*e^{0}"]]}]}
    ]
    curved["functors"] = [
        {
            "name": "idA",
            "src": "A",
            "dst": "A",
            "obj_map": {"X": "X"},
            "convergence_bound": 16,
            "components": [{"word": ["c"], "value": [["c", ONE]]}],
        }
    ]
    curved["coderivations"] = [
        {
            "name": "s",
            "from": "idA",
            "to": "idA",
            "degree": 0,
            "level": ZERO_LVL,
            "components": [{"word": ["c"], "value": [["c", ONE]]}],
        }
    ]
    curved["coder_quiver"] = {
        "source": "A",
        "target": "A",
        "functors": ["idA"],
        "coderivations": ["s"],
    }
    dump("curved_min.json", curved)

    # Associative two-element algebra (unit u, square-zero v), sdeg -1.
    assoc = header()
    assoc["quivers"] = [
        {
            "name": "A",
            "objects": ["X"],
            "generators": [gen("pu", "X", "X", -1), gen("pv", "X", "X", -1)],
        }
    ]
    assoc["b_components"] = [
        {
            "quiver": "A",
            "components": [
                {"word": ["pu", "pu"], "value": [["pu", ONE]]},
                {"word": ["pu", "pv"], "value": [["pv", ONE]]},
                {"word": ["pv", "pu"], "value": [["pv", ONE]]},
            ],
        }
    ]
    dump("assoc.json", assoc)

    # A coder quiver with several letters on assoc's codifferential: the
    # identity functor and three coderivations of it, of degrees 0 and 1.
    # b^2 = 0 here, so every residual of check-coder-b2 must be 0.
    multi = header()
    multi["quivers"] = assoc["quivers"]
    multi["b_components"] = assoc["b_components"]
    multi["functors"] = [
        {
            "name": "idA",
            "src": "A",
            "dst": "A",
            "obj_map": {"X": "X"},
            "convergence_bound": 16,
            "components": [
                {"word": ["pu"], "value": [["pu", ONE]]},
                {"word": ["pv"], "value": [["pv", ONE]]},
            ],
        }
    ]

    def coder(name, degree, components):
        return {"name": name, "from": "idA", "to": "idA", "degree": degree, "level": ZERO_LVL,
                "components": [{"word": w, "value": v} for w, v in components]}

    multi["coderivations"] = [
        coder("r1", 0, [(["pu"], [["pv", ONE]]), (["pv"], [["pu", "2*T^{0}*e^{0}"]])]),
        coder("r2", 1, [(["pu", "pv"], [["pu", ONE]]), (["pv", "pv"], [["pv", ONE]])]),
        coder("r3", 0, [(["pu"], [["pu", "1*T^{1}*e^{0}"]])]),
    ]
    multi["coder_quiver"] = {
        "source": "A",
        "target": "A",
        "functors": ["idA"],
        "coderivations": ["r1", "r2", "r3"],
    }
    dump("coder_multi.json", multi)

    # Non-associative mutation: (uu)u = 0 while u(uu) = u.
    nonassoc = header()
    nonassoc["quivers"] = assoc["quivers"]
    nonassoc["b_components"] = [
        {
            "quiver": "A",
            "components": [
                {"word": ["pu", "pu"], "value": [["pv", ONE]]},
                {"word": ["pu", "pv"], "value": [["pu", ONE]]},
            ],
        }
    ]
    dump("nonassoc.json", nonassoc)

    # coder_multi's coder quiver on nonassoc's codifferential: b^2 != 0, so
    # check-coder-b2 reports nonzero residuals on words.
    coder_nonassoc = header()
    coder_nonassoc["quivers"] = nonassoc["quivers"]
    coder_nonassoc["b_components"] = nonassoc["b_components"]
    for key in ("functors", "coderivations", "coder_quiver"):
        coder_nonassoc[key] = multi[key]
    dump("coder_nonassoc.json", coder_nonassoc)

    # Empty quiver: zero relations to check.
    empty = header()
    empty["quivers"] = [{"name": "A", "objects": [], "generators": []}]
    empty["b_components"] = [{"quiver": "A", "components": []}]
    dump("empty.json", empty)

    # Solver roundtrip: one-object factor quiver driving two coderivations.
    psi = header(max_len=4)
    psi["quivers"] = [
        {
            "name": "A",
            "objects": ["X"],
            "generators": [gen("p", "X", "X", 0), gen("q", "X", "X", 1)],
        },
        {
            "name": "C",
            "objects": ["o"],
            "generators": [gen("c1", "o", "o", 1), gen("c2", "o", "o", 0)],
        },
    ]
    psi["functors"] = [
        {
            "name": "idA",
            "src": "A",
            "dst": "A",
            "obj_map": {"X": "X"},
            "convergence_bound": 16,
            "components": [
                {"word": ["p"], "value": [["p", ONE]]},
                {"word": ["q"], "value": [["q", ONE]]},
            ],
        }
    ]
    psi["coderivations"] = [
        {
            "name": "r1",
            "from": "idA",
            "to": "idA",
            "degree": 1,
            "level": ZERO_LVL,
            "components": [{"word": ["p"], "value": [["q", ONE]]}],
        },
        {
            "name": "r2",
            "from": "idA",
            "to": "idA",
            "degree": 0,
            "level": ZERO_LVL,
            "components": [
                {"word": ["p"], "value": [["p", ONE]]},
                {"word": ["q"], "value": [["q", ONE]]},
            ],
        },
    ]
    psi["psi"] = {
        "source": "C",
        "obj_map": {"o": "idA"},
        "gen_map": {"c1": "r1", "c2": "r2"},
    }
    dump("psi_roundtrip.json", psi)

    # Curvature-bearing functor for composition (level 1 at cutoff 3).
    curved_comp = header()
    curved_comp["quivers"] = [
        {
            "name": "B",
            "objects": ["Y"],
            "generators": [gen("u", "Y", "Y", 0), gen("v", "Y", "Y", 0)],
        }
    ]
    curved_comp["functors"] = [
        {
            "name": "fc",
            "src": "B",
            "dst": "B",
            "obj_map": {"Y": "Y"},
            "convergence_bound": 16,
            "components": [
                {"at": "Y", "value": [["u", "1*T^{1}*e^{0}"]]},
                {"word": ["u"], "value": [["u", ONE]]},
                {"word": ["v"], "value": [["v", ONE]]},
            ],
        },
        {
            "name": "gq",
            "src": "B",
            "dst": "B",
            "obj_map": {"Y": "Y"},
            "convergence_bound": 16,
            "components": [
                {"word": ["u"], "value": [["u", ONE]]},
                {"word": ["v"], "value": [["v", ONE]]},
                {"word": ["u", "u"], "value": [["v", ONE]]},
            ],
        },
    ]
    curved_comp["tasks"] = {"compose": {"f": "fc", "g": "gq"}}
    dump("curved_compose.json", curved_comp)

    # Curvature on three loops at level 1/100 under cutoff 3: its 300th
    # tensor power is the first in F^3, within the bound of 400.  The power
    # has 3^300 words, so only a closed-form order decides it.
    wide = header(cutoff=("rat", "3"))
    wide["quivers"] = [
        {
            "name": "W",
            "objects": ["X"],
            "generators": [gen("a", "X", "X", 0), gen("b", "X", "X", 0), gen("c", "X", "X", 0)],
        }
    ]
    wide["functors"] = [
        {
            "name": "fw",
            "src": "W",
            "dst": "W",
            "obj_map": {"X": "X"},
            "convergence_bound": 400,
            "components": [
                {
                    "at": "X",
                    "value": [["a", "1*T^{1/100}*e^{0}"], ["b", "2*T^{1/50}*e^{0}"], ["c", "-1*T^{1}*e^{0}"]],
                },
                {"word": ["a"], "value": [["a", ONE]]},
                {"word": ["b"], "value": [["b", ONE]]},
                {"word": ["c"], "value": [["c", ONE]]},
            ],
        }
    ]
    dump("curved_wide.json", wide)

    # Multi-term scalars: one conjugated complex per object,
    # d x = a y1 + a s e^{1} y2, d y1 = -s b z, d y2 = b' e^{-1} z, with
    # rational energies of different denominators, some negative.  On X,
    # b' = b and b o b cancels at [x]; on Y, b' = b + t and leaves a s t.
    multi = header()
    multi["quivers"] = [{"name": "M", "objects": ["X", "Y"], "generators": []}]
    multi["b_components"] = [{"quiver": "M", "components": []}]
    for obj, a, s, b, t in (
        ("X", {"-1/3": "3/2", "1/6": "-5/4", "3/4": "7/3"}, {"-1/10": "-1/7", "1/5": "2/3"},
         {"-1/8": "5/6", "1/4": "1/2", "2/5": "-3"}, {}),
        ("Y", {"-1/4": "2", "2/7": "-1/3", "1/2": "5/9"}, {"-1/6": "3/4", "1/3": "-2"},
         {"-1/9": "1", "1/5": "-7/2", "1/2": "4/3"}, {"1/3": "1/9", "1/2": "-2/3"}),
    ):
        x, y1, y2, z = (f"{n}{obj}" for n in ("x", "y1", "y2", "z"))
        multi["quivers"][0]["generators"] += [
            gen(x, obj, obj, 0, {"rat": "-1/2"}),
            gen(y1, obj, obj, 1),
            gen(y2, obj, obj, -1, {"rat": "1/3"}),
            gen(z, obj, obj, 2, {"rat": "1/2"}),
        ]
        a, s, b, t = (_poly(p) for p in (a, s, b, t))
        multi["b_components"][0]["components"] += [
            {"word": [x], "value": [[y1, _poly_text(a)], [y2, _poly_text(_poly_mul(a, s), 1)]]},
            {"word": [y1], "value": [[z, _poly_text({e: -c for e, c in _poly_mul(s, b).items()})]]},
            {"word": [y2], "value": [[z, _poly_text(_poly_add(b, t), -1)]]},
        ]
    dump("multiterm.json", multi)

    # Discrete instance, level-0 curvature: convergence is undecidable.
    undec = {
        "level_monoid": "discrete",
        "coefficients": "q",
        "window": {"max_len": 4, "cutoff": {"discrete": "inf"}},
        "quivers": [
            {
                "name": "A",
                "objects": ["X"],
                "generators": [
                    {"id": "c", "src": "X", "dst": "X", "sdeg": 0, "base_level": {"discrete": "0"}}
                ],
            }
        ],
        "functors": [
            {
                "name": "f",
                "src": "A",
                "dst": "A",
                "obj_map": {"X": "X"},
                "convergence_bound": 8,
                "components": [{"at": "X", "value": [["c", "1*T^{0}*e^{0}"]]}],
            }
        ],
    }
    dump("undecided.json", undec)

    # Lossy evaluation: window too short for the image length.
    lossy = header(max_len=1)
    lossy["quivers"] = [
        {
            "name": "A",
            "objects": ["X"],
            "generators": [gen("p", "X", "X", 0), gen("q", "X", "X", 1)],
        }
    ]
    lossy["functors"] = [
        {
            "name": "idA",
            "src": "A",
            "dst": "A",
            "obj_map": {"X": "X"},
            "convergence_bound": 16,
            "components": [
                {"word": ["p"], "value": [["p", ONE]]},
                {"word": ["q"], "value": [["q", ONE]]},
            ],
        }
    ]
    lossy["elements"] = [
        {"name": "a1", "quiver": "A", "terms": [{"word": ["p", "p"], "coeff": ONE}]}
    ]
    lossy["tasks"] = {"eval": {"element": "a1", "chain": [], "boundary": "idA"}}
    dump("lossy_eval.json", lossy)

    # Deliberately malformed: bad scalar syntax.
    bad = header()
    bad["quivers"] = [
        {"name": "A", "objects": ["X"], "generators": [gen("p", "X", "X", 0)]}
    ]
    bad["functors"] = [
        {
            "name": "f",
            "src": "A",
            "dst": "A",
            "obj_map": {"X": "X"},
            "components": [{"word": ["p"], "value": [["p", "one"]]}],
        }
    ]
    dump("parse_error.json", bad)

    # Unresolved name: component uses an undeclared generator.
    unresolved = header()
    unresolved["quivers"] = [
        {"name": "A", "objects": ["X"], "generators": [gen("p", "X", "X", 0)]}
    ]
    unresolved["b_components"] = [
        {"quiver": "A", "components": [{"word": ["nope"], "value": [["p", ONE]]}]}
    ]
    dump("resolve_error.json", unresolved)


if __name__ == "__main__":
    main()
