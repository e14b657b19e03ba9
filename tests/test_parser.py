"""Concrete syntax: grammar cases and round trips."""

import glob
import os
import re

import pytest

from eopoly import cli
from eopoly.econ import econ_expr, econ_synth
from eopoly.elaborate import elaborate
from eopoly.errors import ParseError
from eopoly.parser import (
    parse_expr_text,
    parse_term_text,
    parse_type_text,
    split_header,
    tokenize,
)
from eopoly.pretty import pretty_expr, pretty_term, pretty_ty
from eopoly.program import load_program, parse_program
from eopoly.syntax import (
    Anno,
    App,
    Case,
    EconCtx,
    EoApp,
    Fix,
    FixVar,
    IAllEo,
    IArrow,
    IProd,
    IRec,
    ISum,
    ITyVar,
    IUnit,
    Inj,
    Lam,
    MApp,
    MCase,
    MFix,
    MFixVar,
    MForce,
    MInj,
    MLam,
    MPair,
    MProj,
    MRoll,
    MThunk,
    MTyApp,
    MTyLam,
    MUnit,
    MUnroll,
    MVar,
    N,
    Pair,
    Proj,
    SArrow,
    SSusp,
    SUnit,
    TyApp,
    TyLam,
    Unit,
    V,
    Var,
    eo_var,
)

U = IUnit()
CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def test_annotated_identity():
    got = parse_expr_text(r"(\x. x : 1 -[N]> 1)")
    assert got == Anno(Lam("x", Var("x")), IArrow(U, U, N))


def test_order_quantified_type():
    got = parse_type_text("all %a. 1 -[%a]> 1")
    assert got == IAllEo("a", IArrow(U, U, eo_var("a")))


def test_list_body_type():
    got = parse_type_text("rec[V] 'b. 1 +[V] ('a *[V] 'b)")
    assert got == IRec("b", ISum(U, IProd(ITyVar("a"), ITyVar("b"), V), V), V)


def test_precedence_product_binds_tighter_than_sum():
    got = parse_type_text("1 +[V] 1 *[V] 1")
    assert got == ISum(U, IProd(U, U, V), V)


def test_arrow_is_right_associative():
    got = parse_type_text("1 -[V]> 1 -[N]> 1")
    assert got == IArrow(U, IArrow(U, U, N), V)


def test_econ_types():
    got = parse_type_text("susp[N] 1 -> 1", lang="econ")
    assert got == SArrow(SSusp(N, SUnit()), SUnit())
    got = parse_type_text("susp[V] susp[N] 1", lang="econ")
    assert got == SSusp(V, SSusp(N, SUnit()))


def test_terms():
    assert parse_expr_text("()") == Unit()
    assert parse_expr_text("f x") == App(Var("f"), Var("x"))
    assert parse_expr_text("x.1").k == 1
    assert parse_expr_text("fix u. u") == Fix("u", FixVar("u"))
    got = parse_expr_text("/\\'t. \\x. x")
    assert got == TyLam("t", Lam("x", Var("x")))
    assert parse_expr_text("f [1]") == TyApp(Var("f"), U)
    assert parse_expr_text("f {V}") == EoApp(Var("f"), V)
    assert parse_expr_text("(x, y)") == Pair(Var("x"), Var("y"))
    got = parse_expr_text("case s { inj1 a -> a | inj2 b -> () }")
    assert got == Case(Var("s"), "a", Var("a"), "b", Unit())
    assert parse_expr_text("inj2 (x, y)") == Inj(2, Pair(Var("x"), Var("y")))


def test_fix_scope_separates_namespaces():
    got = parse_expr_text("fix u. \\x. u x")
    assert got == Fix("u", Lam("x", App(FixVar("u"), Var("x"))))


def test_inner_binder_shadows_a_fixed_point_name():
    assert parse_expr_text("fix f. \\f. f") == Fix("f", Lam("f", Var("f")))
    got = parse_expr_text("fix f. case f { inj1 f -> f | inj2 g -> f }")
    assert got == Fix("f", Case(FixVar("f"), "f", Var("f"), "g", FixVar("f")))
    assert parse_term_text("fix f. \\f. f") == MFix("f", MLam("f", MVar("f")))
    assert parse_term_text("\\f. fix f. f") == MLam("f", MFix("f", MFixVar("f")))


@pytest.mark.parametrize("lang,arrow", [("impartial", "1 -[V]> 1"),
                                        ("econ", "susp[V] 1 -> 1")])
def test_shadowing_and_its_alpha_variant_get_one_verdict(tmp_path, capsys,
                                                         lang, arrow):
    verdicts = []
    for body in ("\\f. f", "\\g. g"):
        path = tmp_path / "p.eo"
        path.write_text(f"#lang {lang}\n((((fix f. {body}) : {arrow}) ()) : 1)\n")
        verdicts.append((cli.main(["check", str(path)]), capsys.readouterr()))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] == 0


def test_core_terms():
    assert parse_term_text("thunk ()") == MThunk(MUnit())
    assert parse_term_text("force x") == MForce(MVar("x"))
    assert parse_term_text("/\\. \\x. x") == MTyLam(MLam("x", MVar("x")))
    assert parse_term_text("f []") == MTyApp(MVar("f"))
    assert parse_term_text("roll thunk ()") == MRoll(MThunk(MUnit()))


def test_parse_errors_report_position():
    with pytest.raises(ParseError):
        parse_expr_text("case x {")
    with pytest.raises(ParseError):
        parse_type_text("1 -[Q]> 1")
    with pytest.raises(ParseError):
        parse_expr_text("x.3")


def test_program_requires_annotation():
    with pytest.raises(ParseError):
        parse_program("#lang impartial\n()")


def test_program_abbreviations_expand():
    prog = parse_program(
        "#lang impartial\n"
        "type Two = 1 +[V] 1\n"
        "type Box %a 't = 1 -[%a]> 't\n"
        "((\\x. x) : Box N Two)"
    )
    assert prog.main == Anno(
        Lam("x", Var("x")), IArrow(U, ISum(U, U, V), N)
    )


def _corpus_texts():
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        with open(path, encoding="utf-8") as fh:
            yield path, fh.read()


def test_header_line_is_only_blanked():
    for path, text in _corpus_texts():
        header, _, body = text.partition("\n")
        lang, rest = split_header(text)
        assert (header, rest) == (f"#lang {lang}", "\n" + body), path
        # The body without its header reads the same, one line down.
        assert tokenize(rest) == [(kind, tok, line + 1, col)
                                  for kind, tok, line, col in tokenize(body)]
        if lang == "impartial":
            assert parse_program(body) == parse_program(text), path
        crlf = text.replace("\n", "\r\n")
        assert tokenize(split_header(crlf)[1]) == tokenize(rest), path
        assert parse_program(crlf) == parse_program(text), path


@pytest.mark.parametrize("ch", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                "\x85", "\u2028", "\u2029"])
def test_header_leaves_every_other_character_to_the_tokenizer(ch):
    body = f"(() : 1){ch}\n"
    with pytest.raises(ParseError) as bare:
        parse_program(body)
    with pytest.raises(ParseError) as headed:
        parse_program("#lang impartial\n" + body)
    assert str(bare.value) == f"1:9: unexpected character {ch!r}"
    assert str(headed.value) == f"2:9: unexpected character {ch!r}"


def test_header_errors_keep_their_line():
    with pytest.raises(ParseError, match=r"^2:4: unexpected character '\\x0c'$"):
        parse_program("#lang impartial\n(()\x0c: 1) )\n")
    with pytest.raises(ParseError, match=r"^2:10: trailing input starting at '\)'$"):
        parse_program("#lang impartial\n(() : 1) )\r\n")
    with pytest.raises(ParseError, match=r"^3:1: header must be"):
        parse_program("\n \t\r\n#lang lazy\n(() : 1)\n")
    # A lone CR is a blank, so the header line runs on into the program.
    with pytest.raises(ParseError, match=r"^1:1: header must be"):
        parse_program("#lang impartial\r(() : 1)\n")


def test_round_trip_corpus():
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        prog = load_program(path)
        lang = prog.lang
        printed = pretty_expr(prog.main)
        again = parse_expr_text(printed, lang=lang)
        assert again == prog.main, path


@pytest.mark.parametrize(
    "text,lang",
    [
        ("all %a. forall 't. (1 -[%a]> 't) *[V] (rec[N] 'b. 't +[%a] 'b)", "impartial"),
        ("rec 'b. susp[%a] (1 + 't * 'b)", "econ"),
        ("susp[V] (susp[N] 1 -> 1) -> forall 't. 't", "econ"),
    ],
)
def test_type_round_trips(text, lang):
    ty = parse_type_text(text, lang=lang)
    assert parse_type_text(pretty_ty(ty), lang=lang) == ty


def test_term_round_trips():
    texts = [
        "(\\x. force x) (thunk (fix u. u))",
        "case unroll x { inj1 a -> () | inj2 b -> (b.1, roll b.2) }",
        "(/\\. \\x. x) [] ()",
        "(thunk (f x), \\y. inj1 y)",
    ]
    for text in texts:
        m = parse_term_text(text)
        assert parse_term_text(pretty_term(m)) == m, text


def test_expr_round_trips():
    texts = [
        r"(\f. \x. f x (inj1 x) : 1)",
        "case (f {V} [1] y).2 { inj1 a -> (a, a) | inj2 b -> (b : 1) }",
        r"fix u. \x. (u x.1, x.2)",
    ]
    for text in texts:
        e = parse_expr_text(text)
        assert parse_expr_text(pretty_expr(e)) == e, text


# -- hypothesis: printing then parsing is the identity on random types --------

from hypothesis import given, settings, strategies as st

from eopoly.syntax import IForall, eo_var as _eo_var

_orders = st.sampled_from([V, N, _eo_var("a")])
_tnames = st.sampled_from(["a", "b"])


def _imp_types():
    return st.recursive(
        st.one_of(st.just(U), st.builds(ITyVar, _tnames)),
        lambda inner: st.one_of(
            st.builds(IArrow, inner, inner, _orders),
            st.builds(IProd, inner, inner, _orders),
            st.builds(ISum, inner, inner, _orders),
            st.builds(IRec, _tnames, inner, _orders),
            st.builds(IForall, _tnames, inner),
            st.builds(IAllEo, st.just("a"), inner),
        ),
        max_leaves=10,
    )


@given(_imp_types())
def test_type_print_parse_identity(ty):
    assert parse_type_text(pretty_ty(ty)) == ty


# -- hypothesis: printing then parsing is the identity on well-scoped random
# expressions and core terms.  Binder names come from one two-name pool
# shared by lambda, case and fix, so binders of either kind shadow each
# other; a name refers to its innermost binder, or is a free term variable.

_names = st.sampled_from(["f", "g"])
_small_types = st.sampled_from([U, ITyVar("a"), IArrow(U, U, N)])
# Binder forms are drawn three times as often as the others, so that
# nested binders of one name are common.
_BINDER_FORMS = ("lam", "fix", "case") * 3


def _ref(scope, name, var, fixvar):
    for bound, is_fix in reversed(scope):
        if bound == name:
            return fixvar(name) if is_fix else var(name)
    return var(name)


@st.composite
def _source_exprs(draw, scope=(), depth=5):
    name = draw(_names)
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.integers(0, 3)) == 0:
            return Unit()
        return _ref(scope, name, Var, FixVar)

    def sub(inner=scope):
        return _source_exprs(inner, depth - 1)

    form = draw(st.sampled_from(
        [*_BINDER_FORMS, "tylam", "app", "pair", "proj", "inj", "tyapp",
         "eoapp", "anno"]))
    if form == "lam":
        return Lam(name, draw(sub(scope + ((name, False),))))
    if form == "fix":
        return Fix(name, draw(sub(scope + ((name, True),))))
    if form == "tylam":
        return TyLam(draw(_tnames), draw(sub()))
    if form == "app":
        return App(draw(sub()), draw(sub()))
    if form == "pair":
        return Pair(draw(sub()), draw(sub()))
    if form in ("proj", "inj"):
        return (Proj if form == "proj" else Inj)(draw(st.sampled_from([1, 2])),
                                                  draw(sub()))
    if form == "case":
        x2 = draw(_names)
        return Case(draw(sub()), name, draw(sub(scope + ((name, False),))),
                    x2, draw(sub(scope + ((x2, False),))))
    if form == "tyapp":
        return TyApp(draw(sub()), draw(_small_types))
    if form == "eoapp":
        return EoApp(draw(sub()), draw(_orders))
    return Anno(draw(sub()), draw(_small_types))


_CORE_PREFIX = {"thunk": MThunk, "force": MForce, "roll": MRoll,
                "unroll": MUnroll}


@st.composite
def _core_terms(draw, scope=(), depth=5):
    name = draw(_names)
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.integers(0, 3)) == 0:
            return MUnit()
        return _ref(scope, name, MVar, MFixVar)

    def sub(inner=scope):
        return _core_terms(inner, depth - 1)

    form = draw(st.sampled_from(
        [*_BINDER_FORMS, "tylam", "tyapp", "app", "pair", "proj", "inj",
         *_CORE_PREFIX]))
    if form == "lam":
        return MLam(name, draw(sub(scope + ((name, False),))))
    if form == "fix":
        return MFix(name, draw(sub(scope + ((name, True),))))
    if form in ("tylam", "tyapp"):
        return (MTyLam if form == "tylam" else MTyApp)(draw(sub()))
    if form == "app":
        return MApp(draw(sub()), draw(sub()))
    if form == "pair":
        return MPair(draw(sub()), draw(sub()))
    if form in ("proj", "inj"):
        return (MProj if form == "proj" else MInj)(draw(st.sampled_from([1, 2])),
                                                    draw(sub()))
    if form == "case":
        x2 = draw(_names)
        return MCase(draw(sub()), name, draw(sub(scope + ((name, False),))),
                     x2, draw(sub(scope + ((x2, False),))))
    return _CORE_PREFIX[form](draw(sub()))


@settings(max_examples=300)
@given(_source_exprs())
def test_expr_print_parse_identity(e):
    assert parse_expr_text(pretty_expr(e)) == e


@settings(max_examples=300)
@given(_core_terms())
def test_term_print_parse_identity(m):
    assert parse_term_text(pretty_term(m)) == m


def test_elaborated_corpus_terms_round_trip():
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.eo"))):
        prog = load_program(path)
        e = econ_expr(prog.main) if prog.lang == "impartial" else prog.main
        m = elaborate(econ_synth(EconCtx(), e)).term
        assert parse_term_text(pretty_term(m)) == m, path


# -- fuzzing: random text parses or raises ParseError, nothing else ----------

_FUZZ_PIECES = [
    "-[", "]>", "*[", "+[", "/\\", "->", "(", ")", "()", "[", "]", "{", "}",
    ".", ",", ":", "\\", "|", "=", "*", "+", "'a", "'b", "%a", "%e", "x",
    "y", "u", "_", "fix", "case", "inj1", "inj2", "V", "N", "1", "2", "3",
    "type", "T", "List", "forall", "all", "rec", "susp", "thunk", "force",
    "roll", "unroll", " ", "\n", "-- c\n", "#lang econ\n", "#lang impartial\n",
    "é", "²",
]


def _parses_or_raises_parse_error(text):
    for parse in (parse_program, parse_expr_text, parse_term_text,
                  lambda t: parse_expr_text(t, "econ"), parse_type_text,
                  lambda t: parse_type_text(t, "econ")):
        try:
            parse(text)
        except ParseError:
            pass


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_FUZZ_PIECES), max_size=60).map("".join))
def test_random_pieces_parse_or_raise_parse_error(text):
    _parses_or_raises_parse_error(text)


@settings(max_examples=200)
@given(st.text(max_size=60))
def test_random_text_parses_or_raises_parse_error(text):
    _parses_or_raises_parse_error(text)


_CORPUS_TEXTS = [text for _, text in _corpus_texts()]


@settings(max_examples=200)
@given(st.data())
def test_edited_corpus_files_parse_or_raise_parse_error(data):
    """A corpus file with a few of its tokens deleted, replaced or
    preceded by a random piece: text that is mostly well-formed."""
    text = data.draw(st.sampled_from(_CORPUS_TEXTS))
    pieces = [text[m.start():m.end()]
              for m in re.finditer(r"\s+|--[^\n]*|['%]?\w+|\S", text)]
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(pieces) - 1))
        edit = data.draw(st.sampled_from(["delete", "replace", "insert"]))
        if edit == "delete":
            del pieces[i]
        else:
            piece = data.draw(st.sampled_from(_FUZZ_PIECES))
            pieces[i:i + (edit == "replace")] = [piece]
    _parses_or_raises_parse_error("".join(pieces))
