"""Seeded input generators.

Every input is program text plus the answer known for it by construction
(or, for corpus files, by hand in ``answers.py``).  A seed fixes every
choice.  Sizes are fixed sets, or one draw from each of a fixed set of
narrow ranges, so two seeds do nearly the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from syntaxio import LEAF, canon_type, closed_valueness, show_expr, show_imp_type

# ---------------------------------------------------------------------------
# Templates: the corpus's map, tree-map and stream programs
# ---------------------------------------------------------------------------

LIST_DECLS = """\
type List %a 'e = rec[%a] 'b. (1 +[%a] ('e *[%a] 'b))
type MapTy = all %a. forall 's. forall 't.
    ('s -[V]> 't) -[V]> (List %a 's) -[V]> (List %a 't)
"""

MAP_FN = ("(/\\'s. /\\'t. \\f. fix mp. \\xs.\n"
          "    case xs { inj1 z -> inj1 () | inj2 p -> inj2 (f p.1, mp p.2) })")

VLIST_DECLS = "type VList 'e = rec[V] 'b. (1 +[V] ('e *[V] 'b))\n"

TREE_DECLS = """\
type Tree %a 'e = rec[%a] 'b. (1 +[V] ('e *[V] ('b *[V] 'b)))
type TreeMapTy = all %a. forall 's. forall 't.
    ('s -[V]> 't) -[V]> (Tree %a 's) -[V]> (Tree %a 't)
"""

TREE_FN = ("(/\\'s. /\\'t. \\f. fix tm. \\t.\n"
           "    case t { inj1 z -> inj1 () | inj2 p -> inj2 (f p.1, (tm p.2.1, tm p.2.2)) })")

STREAM_DECLS = {
    "even": "type Even 'e = rec[N] 'b. (1 +[V] ('e *[V] 'b))\n",
    "odd": "type Odd 'e = rec[V] 'b. (1 +[V] ('e *[V] (rec[N] 'c. 'b)))\n",
}

# Expected result types, written out by hand in ``canon_type`` form.
LIST_T = {o: f"(rec[{o}] '0. (1 +[{o}] (1 *[{o}] '0)))" for o in "VN"}
MAP_T = ("(all %0. (forall '1. (forall '2. (('1 -[V]> '2) -[V]> "
         "((rec[%0] '3. (1 +[%0] ('1 *[%0] '3))) -[V]> "
         "(rec[%0] '3. (1 +[%0] ('2 *[%0] '3))))))))")
TREE_T = {o: f"(rec[{o}] '0. (1 +[V] (1 *[V] ('0 *[V] '0))))" for o in "VN"}
TREE_MAP_T = ("(all %0. (forall '1. (forall '2. (('1 -[V]> '2) -[V]> "
              "((rec[%0] '3. (1 +[V] ('1 *[V] ('3 *[V] '3)))) -[V]> "
              "(rec[%0] '3. (1 +[V] ('2 *[V] ('3 *[V] '3)))))))))")
STREAM_T = {"even": "(rec[N] '0. (1 +[V] (1 *[V] '0)))",
            "odd": "(rec[V] '0. (1 +[V] (1 *[V] (rec[N] '1. '0))))"}


def list_text(n: int) -> str:
    out = "inj1 ()"
    for _ in range(n):
        out = f"inj2 ((), {out})"
    return out


def random_tree(rng: random.Random, nodes: int):
    """A binary tree shape with ``nodes`` inner nodes, split at random."""
    if nodes == 0:
        return LEAF
    left = rng.randrange(nodes)
    return (random_tree(rng, left), random_tree(rng, nodes - 1 - left))


def tree_text(t) -> str:
    if t == LEAF:
        return "inj1 ()"
    return f"inj2 ((), ({tree_text(t[0])}, {tree_text(t[1])}))"


def map_program(order: str, n: int) -> str:
    """map at V or N applied to an n-element list; order "P" is the bare
    polymorphic function."""
    if order == "P":
        return f"#lang impartial\n{LIST_DECLS}\n({MAP_FN} : MapTy)\n"
    arg = list_text(n) if order == "V" else f"(({list_text(n)}) : List N 1)"
    return (f"#lang impartial\n{LIST_DECLS}\n"
            f"((({MAP_FN} : MapTy) {{{order}}} [1] [1] (\\z. z) ({arg})) : List {order} 1)\n")


def nfree_map_program(n: int) -> str:
    """The monomorphic by-value map: no orders to instantiate, no thunks."""
    return (f"#lang impartial\n{VLIST_DECLS}\n"
            f"((({MAP_FN} : forall 's. forall 't. ('s -[V]> 't) -[V]> "
            f"(VList 's) -[V]> (VList 't)) [1] [1] (\\z. z) ({list_text(n)})) : VList 1)\n")


def tree_map_program(order: str, tree) -> str:
    if order == "P":
        return f"#lang impartial\n{TREE_DECLS}\n({TREE_FN} : TreeMapTy)\n"
    arg = tree_text(tree) if order == "V" else f"(({tree_text(tree)}) : Tree N 1)"
    return (f"#lang impartial\n{TREE_DECLS}\n"
            f"((({TREE_FN} : TreeMapTy) {{{order}}} [1] [1] (\\z. z) ({arg})) : Tree {order} 1)\n")


def stream_program(style: str, n: int) -> str:
    name = style.capitalize()
    return (f"#lang impartial\n{STREAM_DECLS[style]}\n"
            f"(({list_text(n)}) : {name} 1)\n")


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

@dataclass
class Source:
    """One program text with its known answers.

    ``ty`` and ``valueness`` are the expected source type (``canon_type``
    form) and valueness; ``expect`` describes the expected run outcome.
    """

    name: str
    text: str
    ty: str
    valueness: str
    expect: dict = field(default_factory=dict)


def corpus_source(name: str, text: str, answer: tuple[str, str]) -> Source:
    return Source(f"corpus/{name}", text, answer[0], answer[1])


def compile_templates(rng: random.Random) -> list[Source]:
    """Map, tree map and streams at seeded sizes and all three orders.

    Sizes come one from each of a fixed set of ranges, so a pass's total
    size barely depends on the seed.
    """
    out: list[Source] = []
    for lo, hi in ((1, 4), (5, 12), (13, 24)):
        for order in "VN":
            n = rng.randint(lo, hi)
            out.append(Source(f"map-{order}-{n}", map_program(order, n),
                              LIST_T[order], "top"))
        for style in ("even", "odd"):
            n = rng.randint(lo, hi)
            out.append(Source(f"stream-{style}-{n}", stream_program(style, n),
                              STREAM_T[style], "val"))
    for lo, hi in ((1, 3), (4, 8)):
        for order in "VN":
            tree = random_tree(rng, rng.randint(lo, hi))
            out.append(Source(f"tree-map-{order}", tree_map_program(order, tree),
                              TREE_T[order], "top"))
    out.append(Source("map-P", map_program("P", 0), MAP_T, "val"))
    out.append(Source("tree-map-P", tree_map_program("P", None), TREE_MAP_T, "val"))
    return out


def judgment_source(index: int, j) -> Source:
    """An enumerated judgment as a program with a top-level annotation."""
    text = f"#lang impartial\n({show_expr(j.expr)} : {show_imp_type(j.ty)})\n"
    return Source(f"enum-{index}", text, canon_type(j.ty),
                  closed_valueness(j.expr))


def judgment_key(j) -> tuple[str, str, str]:
    """Order-independent identity of a judgment, for seeded draws that do
    not move when the enumerator lists the same set in another order."""
    return (j.direction, show_imp_type(j.ty), show_expr(j.expr))


def systematic_draw(items: list, stride: int, rng: random.Random) -> list:
    """One item from every block of ``stride`` consecutive items, at a
    seeded offset within each block: a sample that covers the whole list
    evenly, so its cost varies little from seed to seed."""
    return [items[start + rng.randrange(min(stride, len(items) - start))]
            for start in range(0, len(items), stride)]


def run_templates(rng: random.Random) -> list[Source]:
    """The ``run`` workload's programs; ``expect`` holds fuel and outcome.

    Every list length from 2 to 10 appears once per variant and every tree
    size from 1 to 7 once per order; the seed draws the tree shapes (and
    the caller the request order).  The evaluators' cost grows with the
    cube of the size, so a fixed set of sizes keeps a pass's work, and its
    latency quantiles, the same from seed to seed.
    """
    out: list[Source] = []
    for n in range(2, 11):
        for order in "VN":
            out.append(Source(f"map-{order}-{n}", map_program(order, n),
                              LIST_T[order], "top",
                              {"fuel": 10_000, "list": n, "core": order}))
        out.append(Source(f"nfree-map-{n}", nfree_map_program(n),
                          LIST_T["V"], "top",
                          {"fuel": 10_000, "list": n, "core": "V", "nfree": True}))
    for n in range(1, 8):
        for order in "VN":
            tree = random_tree(rng, n)
            out.append(Source(f"tree-map-{order}-{n}", tree_map_program(order, tree),
                              TREE_T[order], "top",
                              {"fuel": 10_000, "tree": tree, "core": order}))
    return out
