"""Known answers for the corpus, written by hand.

Types are in ``syntaxio.canon_type`` form and were read off each file's
top-level annotation; valuenesses follow the README and acceptance
criterion 1 (the map, tree map and stream values are val, every
application, case, projection or fixed point is top).

The verification verdicts follow the README's harness section: every
check passes, the N-freeness and cbv-endpoint checks are vacuous on any
program that mentions a by-name connective or an order variable (all but
``nfree_map`` and ``nfree_mono``), and the boundary witness
``gap_argument_position`` refutes the per-step simulation.  That ``fail``
is the correct answer there, not a failure of the benchmark.
"""

from inputs import LIST_T, MAP_T, STREAM_T, TREE_MAP_T

MAP_ECON_T = ("(all %0. (forall '1. (forall '2. (('1 -> '2) -> "
              "((rec '3. (susp[%0] (1 + ('1 * '3)))) -> "
              "(rec '3. (susp[%0] (1 + ('2 * '3)))))))))")

CORPUS_TYPES = {
    "bool_byname.eo": ("1", "top"),
    "byname_discard.eo": ("1", "top"),
    "gap_argument_position.eo": ("1", "top"),
    "id_poly_n.eo": ("1", "top"),
    "id_poly_v.eo": ("1", "top"),
    "map_applied_n.eo": (LIST_T["N"], "top"),
    "map_applied_v.eo": (LIST_T["V"], "top"),
    "map_econ.eo": (MAP_ECON_T, "val"),
    "map_impartial.eo": (MAP_T, "val"),
    "nfree_map.eo": (LIST_T["V"], "top"),
    "nfree_mono.eo": ("1", "top"),
    "pair_lazy.eo": ("1", "top"),
    "stream_even.eo": (STREAM_T["even"], "val"),
    "stream_head.eo": ("1", "top"),
    "stream_odd.eo": (STREAM_T["odd"], "val"),
    "tree_map.eo": (TREE_MAP_T, "val"),
}

# The battery of ``eopoly verify FILE``, in the order it runs.  Files in
# the suspension-point language skip the two translation checks.
IMPARTIAL_CHECKS = ("econ-preserves-typing", "econ-preserves-nfree")
CHECKS = ("elab-type-soundness", "elab-preserves-nfree", "target-type-safety",
          "consistency-simulation", "cbv-endpoint")

_MIXED = {"econ-preserves-typing": "pass", "econ-preserves-nfree": "vacuous",
          "elab-type-soundness": "pass", "elab-preserves-nfree": "vacuous",
          "target-type-safety": "pass", "consistency-simulation": "pass",
          "cbv-endpoint": "vacuous"}
_NFREE = dict.fromkeys(_MIXED, "pass")

VERDICTS = {name: dict(_MIXED) for name in CORPUS_TYPES}
VERDICTS["nfree_map.eo"] = dict(_NFREE)
VERDICTS["nfree_mono.eo"] = dict(_NFREE)
VERDICTS["gap_argument_position.eo"]["consistency-simulation"] = "fail"

ECON_FILES = {"gap_argument_position.eo", "id_poly_n.eo", "id_poly_v.eo",
              "map_econ.eo"}


def expected_checks(name: str) -> list[tuple[str, str]]:
    checks = CHECKS if name in ECON_FILES else IMPARTIAL_CHECKS + CHECKS
    return [(c, VERDICTS[name][c]) for c in checks]


# The divergence witnesses of the ``run`` workload, each at a range of
# fuels: the core run finishes with a unit, while the by-value source run
# spins until its fuel is gone.  ``stream_head``'s source term grows every
# step and each step re-walks it, so its cost grows with the cube of the
# fuel; its fuels stop where a run still takes well under a second.  At
# the CLI's default fuel of 10 000 that run is out of reach on the seed.
WITNESS_FUELS = {
    "byname_discard.eo": (500, 1000, 1500, 2000),
    "pair_lazy.eo": (500, 1000, 1500, 2000),
    "stream_head.eo": (20, 40, 60),
}
