"""The same type shapes built in each of the three type grammars.

Order-carrying connectives are by-value; ``delay`` is the grammar's
non-guarding wrapper (none in the impartial grammar).
"""

from types import SimpleNamespace

from eopoly.syntax import (
    AArrow,
    AForall,
    AProd,
    ARec,
    ASum,
    AThunk,
    ATyVar,
    AUnit,
    EconCtx,
    IArrow,
    IForall,
    ImpCtx,
    IProd,
    IRec,
    ISum,
    ITyVar,
    IUnit,
    N,
    SArrow,
    SForall,
    SProd,
    SRec,
    SSum,
    SSusp,
    STyVar,
    SUnit,
    TgtCtx,
    V,
)

IMP = SimpleNamespace(
    name="impartial", unit=IUnit(), var=ITyVar, forall=IForall, ctx=ImpCtx,
    delay=None, rec=lambda a, b: IRec(a, b, V),
    arrow=lambda d, c: IArrow(d, c, V), prod=lambda l, r: IProd(l, r, V),
    sum=lambda l, r: ISum(l, r, V),
)
ECON = SimpleNamespace(
    name="econ", unit=SUnit(), var=STyVar, forall=SForall, ctx=EconCtx,
    delay=lambda b: SSusp(N, b), rec=SRec, arrow=SArrow, prod=SProd, sum=SSum,
)
TGT = SimpleNamespace(
    name="target", unit=AUnit(), var=ATyVar, forall=AForall, ctx=TgtCtx,
    delay=AThunk, rec=ARec, arrow=AArrow, prod=AProd, sum=ASum,
)
GRAMMARS = (IMP, ECON, TGT)
